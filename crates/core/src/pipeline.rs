//! The experiment pipeline: declarative, seeded, reproducible runs of the
//! combined DP + Byzantine-resilient SGD system.

use crate::registry::{self, ComponentSpec, RegistryError};
use dpbyz_data::sampler::{BatchSource, DatasetSource, SamplingMode};
use dpbyz_data::synthetic::{self, MeanEstimation, MeanEstimationSource};
use dpbyz_data::Dataset;
use dpbyz_dp::{DpError, PrivacyBudget};
use dpbyz_gars::GarError;
use dpbyz_models::{LogisticRegression, LossKind, Model, QuadraticMean};
use dpbyz_server::{
    ConfigError, LrSchedule, MomentumMode, RunHistory, RunObserver, RunScratch, Trainer,
    TrainingConfig,
};
use dpbyz_tensor::{Prng, Vector};
use std::fmt;
use std::sync::Arc;

/// Errors surfaced while assembling or running an experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Invalid training configuration.
    Config(ConfigError),
    /// Invalid privacy configuration.
    Dp(DpError),
    /// The GAR rejected the topology at run time.
    Gar(GarError),
    /// A component id failed to resolve or build through the registry.
    Registry(RegistryError),
    /// Inconsistent specification (message explains).
    Spec(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Config(e) => write!(f, "config: {e}"),
            PipelineError::Dp(e) => write!(f, "privacy: {e}"),
            PipelineError::Gar(e) => write!(f, "aggregation: {e}"),
            PipelineError::Registry(e) => write!(f, "registry: {e}"),
            PipelineError::Spec(m) => write!(f, "spec: {m}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ConfigError> for PipelineError {
    fn from(e: ConfigError) -> Self {
        PipelineError::Config(e)
    }
}
impl From<DpError> for PipelineError {
    fn from(e: DpError) -> Self {
        PipelineError::Dp(e)
    }
}
impl From<GarError> for PipelineError {
    fn from(e: GarError) -> Self {
        PipelineError::Gar(e)
    }
}
impl From<RegistryError> for PipelineError {
    fn from(e: RegistryError) -> Self {
        PipelineError::Registry(e)
    }
}

/// What the workers train on.
#[derive(Debug, Clone)]
pub enum Workload {
    /// The phishing-like synthetic classification task (the documented
    /// substitute for the paper's LIBSVM `phishing` dataset): d = 69
    /// logistic regression with sigmoid-MSE loss.
    PhishingLike {
        /// Seed of the dataset generator (fixed across run seeds so every
        /// seed trains on the same data, as in the paper).
        data_seed: u64,
        /// Total number of examples (the paper's dataset has 11 055).
        size: usize,
    },
    /// A user-provided dataset (e.g. the *real* `phishing` file loaded via
    /// `dpbyz_data::libsvm`): logistic regression over its features.
    Provided {
        /// Training split.
        train: Arc<Dataset>,
        /// Test split.
        test: Arc<Dataset>,
    },
    /// Theorem 1's mean-estimation instance: `Q(w) = ½·E‖w − x‖²` with
    /// `D = N(x̄, σ²/d·I_d)` and `‖x̄‖ = 1` (unit-norm mean keeps `G_max`
    /// d-independent so the measured error scaling is the noise's).
    MeanEstimation {
        /// Dimension `d`.
        dim: usize,
        /// Total sampling std σ.
        sigma: f64,
        /// Seed generating `x̄`.
        data_seed: u64,
    },
}

/// A fully specified experiment: run it with any number of seeds.
///
/// Components are named by registry [`ComponentSpec`]s, so any registered
/// GAR/attack/mechanism — built-in or third-party — can appear here.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The data/model workload.
    pub workload: Workload,
    /// Topology and hyper-parameters.
    pub config: TrainingConfig,
    /// Aggregation rule (resolved through the GAR registry).
    pub gar: ComponentSpec,
    /// Attack mounted by the `config.n_byzantine` colluders (`None` ⇒ all
    /// workers honest), resolved through the attack registry.
    pub attack: Option<ComponentSpec>,
    /// Per-step privacy budget (`None` ⇒ no DP noise).
    pub budget: Option<PrivacyBudget>,
    /// Noise mechanism, resolved through the mechanism registry with the
    /// calibration context (`epsilon`, `delta`, `g_max`, `batch_size`,
    /// `dim`) injected at run time. While [`Experiment::budget`] is
    /// `None`, mechanisms whose factory declared the `requires_budget`
    /// capability (the built-in `gaussian`/`laplace`, or any third-party
    /// mechanism registered via
    /// [`registry::register_mechanism_with`]
    /// with [`MechanismCapabilities::budget_calibrated`](crate::registry::MechanismCapabilities::budget_calibrated))
    /// degrade to the identity mechanism (the paper's no-DP baselines);
    /// all other registered ids are always resolved as specified.
    pub mechanism: ComponentSpec,
    /// Execution backend, resolved through the engine-backend registry at
    /// run time (`"sequential"`, or any registered id — e.g. `"tcp"` or
    /// `"sim"` once `dpbyz-net`'s `install()` has run). Resolution
    /// is deliberately deferred to `run`: backends registered after this
    /// experiment was built still resolve, and an unknown id surfaces as
    /// a [`PipelineError::Spec`] naming the available backends instead of
    /// a panic.
    pub backend: ComponentSpec,
    /// `G_max` reference used to *calibrate* the DP noise, when different
    /// from the actual clip threshold (`None` ⇒ use `config.clip`, the
    /// faithful clip-then-noise protocol). The Theorem 1 workload sets
    /// this: its quadratic cost has no global gradient bound (Assumption 1
    /// cannot hold), and the theorem's lower-bound analysis adds noise
    /// without clipping — so it calibrates at a nominal `G_max` while
    /// setting the clip high enough to never bite.
    pub dp_reference_g_max: Option<f64>,
}

/// Knobs of the paper's §5 figure experiments, with §5.1 defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureConfig {
    /// Batch size `b` (Fig. 2: 50, Fig. 3: 10, Fig. 4: 500).
    pub batch_size: usize,
    /// Privacy `ε` (`None` = no DP; the paper's DP panels use 0.2).
    pub epsilon: Option<f64>,
    /// Privacy `δ` (paper: 10⁻⁶).
    pub delta: f64,
    /// The attack, if any. Unattacked runs aggregate with plain averaging
    /// over all `n` honest workers; attacked runs use MDA with `f = 5`
    /// (exactly the paper's protocol). A bare id takes the registry's
    /// defaults, which are the paper's settings (`alie` ν = 1.5, `foe`
    /// ν = 1.1).
    pub attack: Option<ComponentSpec>,
    /// Steps `T` (paper: 1000).
    pub steps: u32,
    /// Synthetic dataset size (paper: 11 055; shrink for quick runs).
    pub dataset_size: usize,
    /// Dataset generator seed.
    pub data_seed: u64,
}

impl Default for FigureConfig {
    /// The §5.1 protocol as [`Experiment::builder`] and
    /// [`TrainingConfig::default`] state it: no DP, no attack.
    fn default() -> Self {
        let protocol = Experiment::builder();
        let config = TrainingConfig::default();
        FigureConfig {
            batch_size: config.batch_size,
            epsilon: None,
            delta: protocol.delta,
            attack: None,
            steps: config.steps,
            dataset_size: protocol.dataset_size,
            data_seed: protocol.data_seed,
        }
    }
}

impl Experiment {
    /// Builds one cell of the paper's Figs. 2–4 grid: the
    /// [`builder`](Experiment::builder)'s §5.1 protocol (n = 11 workers,
    /// f = 5, lr = 2, momentum 0.99 at the workers, `G_max = 10⁻²`,
    /// accuracy every 50 steps; unattacked ⇒ averaging over 11 honest
    /// workers, attacked ⇒ MDA) with the figure's knobs on top.
    ///
    /// # Errors
    ///
    /// As [`ExperimentBuilder::build`](crate::ExperimentBuilder::build):
    /// [`PipelineError::Dp`] for an invalid `(ε, δ)`,
    /// [`PipelineError::Config`] for an invalid knob (e.g. zero steps).
    pub fn paper_figure(fig: FigureConfig) -> Result<Self, PipelineError> {
        let mut builder = Experiment::builder()
            .batch_size(fig.batch_size)
            .steps(fig.steps)
            .dataset_size(fig.dataset_size)
            .data_seed(fig.data_seed)
            .delta(fig.delta);
        if let Some(attack) = fig.attack {
            builder = builder.attack(attack);
        }
        if let Some(epsilon) = fig.epsilon {
            builder = builder.epsilon(epsilon);
        }
        builder.build()
    }

    /// Builds the Theorem 1 validation workload: mean estimation in
    /// dimension `dim` with a hypothetical ideal GAR stand-in (averaging
    /// over honest workers — the theorem's statement is GAR-agnostic, and
    /// the lower-bound construction uses an honest-output GAR), `γ_t = 1/t`
    /// (λ = 1, α = 0), no momentum, DP noise calibrated at a nominal
    /// `G_max = 2` with clipping effectively disabled (see
    /// [`Experiment::dp_reference_g_max`]). Use `n_workers = 1` to compare
    /// against the Cramér–Rao lower bound exactly (its construction
    /// observes one noisy gradient per step); more workers divide the
    /// variance by `n`.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Dp`] / [`PipelineError::Config`] on bad inputs.
    pub fn theorem1(
        dim: usize,
        sigma: f64,
        budget: Option<PrivacyBudget>,
        steps: u32,
        batch_size: usize,
        n_workers: usize,
    ) -> Result<Self, PipelineError> {
        let mut builder = Experiment::builder()
            .workload(Workload::MeanEstimation {
                dim,
                sigma,
                data_seed: 0x7E01,
            })
            .workers(n_workers, 0)
            .batch_size(batch_size)
            .steps(steps)
            .lr(LrSchedule::InvT { gamma0: 1.0 })
            .momentum(0.0)
            .momentum_mode(MomentumMode::Server)
            .clip(1e9)
            .eval_every(0)
            .dp_reference_g_max(2.0);
        if let Some(budget) = budget {
            builder = builder.budget(budget);
        }
        builder.build()
    }

    /// A paper-protocol figure cell with a *different* aggregation rule
    /// and Byzantine count — the grid the GAR-robustness matrix sweeps
    /// over. `f` is clamped to the rule's tolerance at the protocol's
    /// `n` (at n = 11, Krum: 4, Bulyan: 2).
    ///
    /// # Errors
    ///
    /// As [`Experiment::paper_figure`], plus [`PipelineError::Registry`]
    /// when `gar` does not resolve through the GAR registry.
    pub fn paper_figure_with_gar(
        fig: FigureConfig,
        gar: impl Into<ComponentSpec>,
        f: usize,
    ) -> Result<Self, PipelineError> {
        let mut exp = Self::paper_figure(fig)?;
        let gar = gar.into();
        let f = f.min(registry::build_gar(&gar)?.max_byzantine(exp.config.n_workers));
        exp.gar = gar;
        exp.config.n_byzantine = if exp.attack.is_some() { f } else { 0 };
        Ok(exp)
    }

    /// For [`Workload::MeanEstimation`]: reconstructs the exact sampling
    /// distribution (including `x̄ = w*`), so callers can compute
    /// suboptimality `Q(w) − Q* = ½‖w − x̄‖²` from a run's final
    /// parameters.
    pub fn mean_estimation_instance(&self) -> Option<MeanEstimation> {
        match self.workload {
            Workload::MeanEstimation {
                dim,
                sigma,
                data_seed,
            } => Some(make_mean_estimation(dim, sigma, data_seed)),
            _ => None,
        }
    }

    /// Runs the experiment with one seed.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn run(&self, seed: u64) -> Result<RunHistory, PipelineError> {
        self.run_inner(seed, None, &mut RunScratch::new())
    }

    /// Runs the experiment with one seed, streaming per-step metrics into
    /// `observer` while the run executes. Observation is passive: the
    /// produced history is bit-identical to [`Experiment::run`]'s.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn run_with_observer(
        &self,
        seed: u64,
        observer: Box<dyn RunObserver>,
    ) -> Result<RunHistory, PipelineError> {
        self.run_inner(seed, Some(observer), &mut RunScratch::new())
    }

    /// Runs the experiment with one seed, recycling the engine buffers in
    /// `scratch` — the cross-job hot path the sweep executor's pool
    /// workers and [`Experiment::run_seeds`] drive. Bit-identical to
    /// [`Experiment::run`] regardless of what a previous run (even of a
    /// different experiment) left in the scratch.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn run_with_scratch(
        &self,
        seed: u64,
        scratch: &mut RunScratch,
    ) -> Result<RunHistory, PipelineError> {
        self.run_inner(seed, None, scratch)
    }

    pub(crate) fn run_inner(
        &self,
        seed: u64,
        observer: Option<Box<dyn RunObserver>>,
        scratch: &mut RunScratch,
    ) -> Result<RunHistory, PipelineError> {
        let backend = crate::engine::build_backend(&self.backend).map_err(|e| match e {
            RegistryError::UnknownId { id, available } => PipelineError::Spec(format!(
                "unknown engine backend `{id}`; available backends: [{}] \
                 (in-process engines are built in; out-of-process backends \
                 register at startup, e.g. dpbyz-net's install() for `tcp`)",
                available.join(", ")
            )),
            other => other.into(),
        })?;
        backend.run(self, seed, observer, scratch)
    }

    /// Materializes the experiment into a ready-to-run [`Trainer`]: the
    /// workload's datasets, model, and per-worker batch sources, the
    /// GAR/attack resolved through their registries, and the noise
    /// mechanism calibrated against the budget (or degraded to the
    /// identity for budget-calibrated mechanisms without one). This is
    /// the single construction path every execution backend shares — an
    /// engine that dismantles the returned trainer (e.g. via
    /// `Trainer::into_distributed_parts`) is guaranteed the same
    /// components, in the same order, as the in-process engines.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn build_trainer(&self) -> Result<Trainer, PipelineError> {
        let (model, sources, test): WorkloadParts = match &self.workload {
            Workload::PhishingLike { data_seed, size } => {
                let mut rng = Prng::seed_from_u64(*data_seed);
                let ds = synthetic::phishing_like(&mut rng, *size);
                let n_train = ((*size as f64) * 0.76).round() as usize;
                let (train, test) = ds
                    .split_at(n_train)
                    .map_err(|e| PipelineError::Spec(format!("dataset too small: {e}")))?;
                let train = Arc::new(train);
                let model = Arc::new(LogisticRegression::new(
                    train.num_features(),
                    LossKind::SigmoidMse,
                ));
                let sources = dataset_sources(&train, self.config.n_workers);
                (model, sources, Some(Arc::new(test)))
            }
            Workload::Provided { train, test } => {
                let model = Arc::new(LogisticRegression::new(
                    train.num_features(),
                    LossKind::SigmoidMse,
                ));
                let sources = dataset_sources(train, self.config.n_workers);
                (model, sources, Some(test.clone()))
            }
            Workload::MeanEstimation {
                dim,
                sigma,
                data_seed,
            } => {
                let dist = make_mean_estimation(*dim, *sigma, *data_seed);
                let model = Arc::new(QuadraticMean::new(*dim));
                let sources: Vec<Box<dyn BatchSource>> = (0..self.config.n_workers)
                    .map(|_| Box::new(MeanEstimationSource(dist.clone())) as Box<dyn BatchSource>)
                    .collect();
                (model, sources, None)
            }
        };

        // Resolve the mechanism through the registry. Mechanisms whose
        // factory declared the `requires_budget` capability (the built-in
        // `gaussian`/`laplace`, plus any third-party budget-calibrated
        // registration) degrade to the identity mechanism when no budget
        // is set (the paper's no-DP baselines); every other mechanism is
        // always resolved as specified, with the calibration context
        // injected for factories that want it.
        let degrade_to_identity = self.budget.is_none()
            && registry::mechanism_capabilities(&self.mechanism.id).requires_budget;
        let mechanism_spec = if degrade_to_identity {
            ComponentSpec::new("none")
        } else {
            let mut spec = self.mechanism.clone();
            if let Some(budget) = &self.budget {
                spec.default_param("epsilon", budget.epsilon());
                spec.default_param("delta", budget.delta());
            }
            spec.default_param("g_max", self.dp_reference_g_max.unwrap_or(self.config.clip));
            spec.default_param("batch_size", self.config.batch_size);
            spec.default_param("dim", model.dim());
            spec
        };
        let mechanism = registry::build_mechanism(&mechanism_spec)?;

        let mut trainer = Trainer::new(self.config.clone(), model, sources, test)
            .gar(registry::build_gar(&self.gar)?)
            .mechanism(mechanism);
        if let Some(attack) = &self.attack {
            trainer = trainer.attack(registry::build_attack(attack)?);
        }
        Ok(trainer)
    }

    /// Runs the experiment across several seeds (the paper repeats each
    /// configuration with seeds 1–5).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Spec`] on an empty seed list (an empty result
    /// would silently poison every downstream aggregate), otherwise fails
    /// on the first erroring seed.
    pub fn run_seeds(&self, seeds: &[u64]) -> Result<Vec<RunHistory>, PipelineError> {
        check_seeds(seeds)?;
        // One scratch across the whole seed loop: consecutive runs reuse
        // the working set (bit-invisible — see `run_with_scratch`).
        let mut scratch = RunScratch::new();
        seeds
            .iter()
            .map(|&s| self.run_with_scratch(s, &mut scratch))
            .collect()
    }

    /// Runs the experiment across several seeds in parallel on a
    /// work-sharing thread pool — the single-cell fast path of the
    /// [`sweep`](crate::sweep) executor. Results come back in seed order
    /// and are bit-identical to [`Experiment::run_seeds`]'s, at any pool
    /// size (`None` = the machine's available parallelism).
    ///
    /// # Errors
    ///
    /// As [`Experiment::run_seeds`]; when several seeds fail, the error
    /// of the first failing seed in *seed order* is returned
    /// (deterministic regardless of completion order).
    pub fn run_seeds_parallel(
        &self,
        seeds: &[u64],
        pool_size: Option<usize>,
    ) -> Result<Vec<RunHistory>, PipelineError> {
        crate::sweep::run_one_parallel(self, seeds, pool_size)
    }

    /// The paper's seeds, 1 through 5.
    pub const PAPER_SEEDS: [u64; 5] = [1, 2, 3, 4, 5];
}

/// Rejects an empty seed list: an empty history vector would silently
/// poison every downstream cross-seed aggregate (`hs[0]`, mean curves).
pub(crate) fn check_seeds(seeds: &[u64]) -> Result<(), PipelineError> {
    if seeds.is_empty() {
        return Err(PipelineError::Spec(
            "no seeds given: running an experiment needs at least one seed".into(),
        ));
    }
    Ok(())
}

fn dataset_sources(train: &Arc<Dataset>, n: usize) -> Vec<Box<dyn BatchSource>> {
    (0..n)
        .map(|_| {
            Box::new(DatasetSource::new(
                train.clone(),
                SamplingMode::WithReplacement,
            )) as Box<dyn BatchSource>
        })
        .collect()
}

/// The instantiated pieces of a workload: model, per-worker batch
/// sources, and optional test split.
type WorkloadParts = (
    Arc<dyn Model>,
    Vec<Box<dyn BatchSource>>,
    Option<Arc<Dataset>>,
);

/// `x̄` is a deterministic unit-norm vector derived from `data_seed`.
fn make_mean_estimation(dim: usize, sigma: f64, data_seed: u64) -> MeanEstimation {
    let mut rng = Prng::seed_from_u64(data_seed);
    let raw = rng.normal_vector(dim, 1.0);
    let norm = raw.l2_norm();
    let mean: Vector = if norm > 0.0 {
        raw.scaled(1.0 / norm)
    } else {
        Vector::basis(dim, 0).expect("dim >= 1") // lint:allow(panic-unwrap, reason = "dim >= 1 is validated by the experiment config before any instance is built")
    };
    MeanEstimation::new(mean, sigma)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_fig(batch: usize, eps: Option<f64>, attack: Option<&str>, steps: u32) -> Experiment {
        Experiment::paper_figure(FigureConfig {
            batch_size: batch,
            epsilon: eps,
            attack: attack.map(ComponentSpec::new),
            steps,
            dataset_size: 400,
            ..FigureConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn default_figure_is_the_builder_default() {
        let figure = Experiment::paper_figure(FigureConfig::default()).unwrap();
        let builder = Experiment::builder().build().unwrap();
        assert_eq!(format!("{figure:?}"), format!("{builder:?}"));
    }

    #[test]
    fn paper_figure_wires_protocol() {
        let unattacked = quick_fig(50, None, None, 10);
        assert_eq!(unattacked.gar, ComponentSpec::new("average"));
        assert_eq!(unattacked.config.n_byzantine, 0);
        assert_eq!(unattacked.config.momentum, 0.99);

        let attacked = quick_fig(50, Some(0.2), Some("alie"), 10);
        assert_eq!(attacked.gar, ComponentSpec::new("mda"));
        assert_eq!(attacked.config.n_byzantine, 5);
        assert!(attacked.budget.is_some());
    }

    #[test]
    fn run_is_reproducible() {
        let exp = quick_fig(10, None, None, 15);
        let a = exp.run(3).unwrap();
        let b = exp.run(3).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.train_loss.len(), 15);
    }

    #[test]
    fn unknown_backend_is_a_spec_error_naming_available_ids() {
        // `threaded` was a backend once; a spec naming it must fail
        // loudly, not run on some other engine.
        for id in ["smoke-signals", "threaded"] {
            let mut exp = quick_fig(10, None, None, 3);
            exp.backend = id.into();
            match exp.run(1) {
                Err(PipelineError::Spec(msg)) => {
                    assert!(
                        msg.contains(&format!("unknown engine backend `{id}`")),
                        "{msg}"
                    );
                    assert!(msg.contains("sequential"), "{msg}");
                }
                other => panic!("{id}: expected Spec error, got {other:?}"),
            }
        }
    }

    #[test]
    fn run_seeds_produces_one_history_per_seed() {
        let exp = quick_fig(10, None, None, 5);
        let hs = exp.run_seeds(&Experiment::PAPER_SEEDS).unwrap();
        assert_eq!(hs.len(), 5);
        // Different seeds, different trajectories.
        assert_ne!(hs[0], hs[1]);
    }

    #[test]
    fn paper_figure_with_gar_swaps_rule_and_clamps_f() {
        let fig = FigureConfig {
            steps: 5,
            dataset_size: 300,
            attack: Some("alie".into()),
            ..FigureConfig::default()
        };
        let krum = Experiment::paper_figure_with_gar(fig.clone(), "krum", 5).unwrap();
        assert_eq!(krum.gar, ComponentSpec::new("krum"));
        assert_eq!(krum.config.n_byzantine, 4); // clamped to Krum's max at n = 11
        let bulyan = Experiment::paper_figure_with_gar(fig.clone(), "bulyan", 5).unwrap();
        assert_eq!(bulyan.config.n_byzantine, 2);
        let err = Experiment::paper_figure_with_gar(fig, "no-such-gar", 5).unwrap_err();
        assert!(matches!(err, PipelineError::Registry(_)), "{err}");
        // Runs end-to-end.
        assert!(krum.run(1).is_ok());
    }

    #[test]
    fn theorem1_workload_runs_and_exposes_instance() {
        let exp = Experiment::theorem1(8, 1.0, None, 50, 4, 3).unwrap();
        let dist = exp.mean_estimation_instance().unwrap();
        assert_eq!(dist.dim(), 8);
        assert!((dist.true_mean().l2_norm() - 1.0).abs() < 1e-12);
        let h = exp.run(1).unwrap();
        // Convergence toward x̄: final suboptimality far below the start
        // (w0 = 0 ⇒ Q(w0) − Q* = ½).
        let sub = 0.5 * h.final_params.l2_distance_squared(dist.true_mean());
        assert!(sub < 0.1, "suboptimality {sub}");
    }

    #[test]
    fn invalid_epsilon_is_rejected() {
        let err = Experiment::paper_figure(FigureConfig {
            epsilon: Some(-1.0),
            ..FigureConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, PipelineError::Dp(_)));
    }

    #[test]
    fn provided_workload_trains() {
        let mut rng = Prng::seed_from_u64(5);
        let ds = synthetic::gaussian_blobs(&mut rng, 300, 4, 4.0);
        let (train, test) = ds.split(0.8, &mut rng).unwrap();
        let exp = Experiment {
            workload: Workload::Provided {
                train: Arc::new(train),
                test: Arc::new(test),
            },
            config: TrainingConfig::builder()
                .workers(3, 0)
                .batch_size(16)
                .steps(60)
                .lr(LrSchedule::Constant(2.0))
                .momentum(0.9)
                .clip(0.5)
                .eval_every(20)
                .build()
                .unwrap(),
            gar: ComponentSpec::new("average"),
            attack: None,
            budget: None,
            mechanism: ComponentSpec::new("gaussian"),
            backend: ComponentSpec::new("sequential"),
            dp_reference_g_max: None,
        };
        let h = exp.run(1).unwrap();
        assert!(h.final_accuracy().unwrap() > 0.9);
    }

    #[test]
    fn error_display_covers_variants() {
        let e = PipelineError::Spec("nope".into());
        assert!(e.to_string().contains("nope"));
        let e: PipelineError = GarError::Empty.into();
        assert!(e.to_string().contains("aggregation"));
    }
}
