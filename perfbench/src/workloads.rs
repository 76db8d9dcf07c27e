//! The benchmark's workloads: what each one runs, why it was chosen, and
//! how its inputs derive from the workload seed.
//!
//! The program under test never sees a workload name. The benchmark
//! generates the inputs here — the phishing-like dataset handed over as
//! [`Workload::Provided`], or the mean-estimation instance named by its
//! data seed — and passes a plain [`Experiment`] to the public API.

use dpbyz::data::synthetic;
use dpbyz::net::FaultPlan;
use dpbyz::tensor::Prng;
use dpbyz::{AttackKind, Experiment, LrSchedule, PipelineError, Workload};
use std::sync::Arc;

/// The seed whose warm-up repetition every invocation checks against a
/// pinned digest.
pub const DEFAULT_SEED: u64 = 1;

/// Engine a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `Trainer`, the sequential reference engine.
    Sequential,
    /// `SimNet` driven by `drive`: real wire frames over the seeded
    /// chaos network with a virtual clock.
    Sim,
}

/// Which input family a workload generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// The paper's §5.1 DP + ALIE cell: phishing-like data, d = 69,
    /// n = 11, f = 5, MDA, ALIE (ν = 1.5), ε = 0.2, δ = 10⁻⁶, b = 50,
    /// worker momentum 0.99, lr 2, accuracy every 50 steps.
    Paper,
    /// Theorem 1's mean-estimation instance at d = 10⁵: n = 11, f = 5,
    /// coordinate-wise median, ALIE, ε = 0.2, b = 1, γ_t = 1/t, noise
    /// calibrated at G_max = 2 with clipping off, 2 aggregation threads.
    Stress,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Input family.
    pub cell: Cell,
    /// Engine the timed repetitions run on.
    pub engine: Engine,
    /// Steps `T` of one repetition (one full training run).
    pub steps: u32,
    /// `T` in smoke mode.
    pub smoke_steps: u32,
    /// Minimum timed repetitions per invocation; `final_loss` averages
    /// exactly this many, so it is a pure function of the seed.
    pub min_reps: usize,
    /// `RunHistory::digest` of the warm-up run at [`DEFAULT_SEED`].
    pub pinned: u64,
    /// The same at `smoke_steps`.
    pub smoke_pinned: u64,
}

/// Every workload. `stress-d1e5` is runnable by name but not listed in
/// `BENCHMARK.json`: on the shared host the benchmark was built on, its
/// run-to-run spread sat at the contract's bound (see README.md).
pub const ALL: [Spec; 3] = [
    // The paper's headline configuration, run over consecutive seeds.
    // Per-round fixed costs and the worker-side layers (batch, loss,
    // gradient, noise) dominate; the net layer and the compute pool are
    // bypassed, so a change to either must leave this workload flat.
    Spec {
        name: "paper-seq",
        cell: Cell::Paper,
        engine: Engine::Sequential,
        steps: 1000,
        smoke_steps: 20,
        min_reps: 100,
        pinned: 0x83ce_5745_659b_24ce,
        smoke_pinned: 0x1580_3d81_3590_f9dc,
    },
    // The paper's thesis is about d. Per-coordinate work dominates:
    // Gaussian sampling, DP noise, the median and the VN diagnostics over
    // a ~10 MB working set that spills out of cache. It is the only
    // workload that runs the `ComputePool`, so an aggregation kernel or
    // parallel-cutoff change shows here.
    Spec {
        name: "stress-d1e5",
        cell: Cell::Stress,
        engine: Engine::Sequential,
        steps: 12,
        smoke_steps: 3,
        min_reps: 8,
        pinned: 0x2b52_51eb_87f0_fc64,
        smoke_pinned: 0x6c9a_5dfa_6d7d_7f5c,
    },
    // The `paper-seq` cell on the sim transport under a fixed crash-free
    // chaos plan: the only workload in which the net layer works (wire
    // frames, `GradGuard` dedup of duplicates, reordering, retransmission,
    // the virtual clock). Its compute equals `paper-seq`'s, so the
    // difference between the two is transport plus loop overhead, and its
    // digest must equal the sequential engine's for every seed.
    Spec {
        name: "paper-sim-chaos",
        cell: Cell::Paper,
        engine: Engine::Sim,
        steps: 1000,
        smoke_steps: 20,
        min_reps: 100,
        pinned: 0x83ce_5745_659b_24ce,
        smoke_pinned: 0x1580_3d81_3590_f9dc,
    },
];

/// The chaos plan seed of `paper-sim-chaos` (crash-free, so the digest
/// must match the sequential engine's).
pub const CHAOS_SEED: u64 = 11;
/// Virtual ms one simulated gradient computation costs (the `sim`
/// backend's default).
pub const SIM_COMPUTE_MS: u64 = 2;
/// Broadcast frames kept for rejoin replay (the `sim` backend's default).
pub const SIM_RESUME_WINDOW: usize = 32;
/// Phase deadlines in virtual ms (the `sim` backend's default).
pub const SIM_DEADLINE_MS: u64 = 10_000;

/// Dimension of the stress instance.
pub const STRESS_DIM: usize = 100_000;

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    ALL.iter().copied().find(|w| w.name == name)
}

/// The training seed of repetition `rep` of an invocation with workload
/// seed `seed`: consecutive within an invocation, disjoint across seeds.
pub fn run_seed(seed: u64, rep: usize) -> u64 {
    (seed << 20) + rep as u64
}

/// Data-generator seed derived from the workload seed.
fn data_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B2_2021
}

/// The generated inputs of one workload seed.
pub enum Inputs {
    /// Train/test split of the phishing-like dataset.
    Paper(Arc<dpbyz::data::Dataset>, Arc<dpbyz::data::Dataset>),
    /// Seed of the mean-estimation instance.
    Stress(u64),
}

/// Generates the inputs for `seed`.
pub fn generate(cell: Cell, seed: u64) -> Inputs {
    match cell {
        Cell::Paper => {
            let size = synthetic::PHISHING_SIZE;
            let mut rng = Prng::seed_from_u64(data_seed(seed));
            let data = synthetic::phishing_like(&mut rng, size);
            let n_train = ((size as f64) * 0.76).round() as usize;
            let (train, test) = data
                .split_at(n_train)
                .expect("the phishing-like dataset is larger than its train split");
            Inputs::Paper(Arc::new(train), Arc::new(test))
        }
        Cell::Stress => Inputs::Stress(data_seed(seed)),
    }
}

/// Builds the experiment for `inputs` with `steps` steps per run.
pub fn experiment(inputs: &Inputs, steps: u32) -> Result<Experiment, PipelineError> {
    match inputs {
        Inputs::Paper(train, test) => Experiment::builder()
            .workload(Workload::Provided {
                train: train.clone(),
                test: test.clone(),
            })
            .gar("mda")
            .attack(AttackKind::PAPER_ALIE)
            .epsilon(0.2)
            .delta(1e-6)
            .steps(steps)
            .build(),
        Inputs::Stress(data_seed) => Experiment::builder()
            .workload(Workload::MeanEstimation {
                dim: STRESS_DIM,
                sigma: 1.0,
                data_seed: *data_seed,
            })
            .workers(11, 5)
            .batch_size(1)
            .steps(steps)
            .lr(LrSchedule::InvT { gamma0: 1.0 })
            .momentum(0.0)
            .clip(1e9)
            .eval_every(0)
            .gar("median")
            .attack(AttackKind::PAPER_ALIE)
            .epsilon(0.2)
            .delta(1e-6)
            .dp_reference_g_max(2.0)
            .agg_threads(2)
            .build(),
    }
}

/// The chaos plan for a run with `n_honest` simulated workers.
pub fn chaos_plan(n_honest: usize) -> FaultPlan {
    FaultPlan::from_seed(CHAOS_SEED, n_honest)
}
