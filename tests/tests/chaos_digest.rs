//! Seeded chaos is digest-invisible: a crash-free fault plan — delays,
//! jitter, duplication, "drops" (delayed retransmissions), partition
//! windows, all derived from a `u64` seed — may scramble the byte-level
//! event order however it likes, but every report still lands inside the
//! virtual deadlines, so [`SimBackend`] must reproduce the
//! sequential engine's history **bit for bit**. And the chaos itself is
//! deterministic: the same chaos seed replays the same run.

use dpbyz_core::pipeline::Experiment;
use dpbyz_net::{Deployment, FaultPlan, SimBackend};
use dpbyz_server::{RunHistory, RunScratch};

/// Eight pinned fault plans — regenerating them must never be a silent
/// test change.
const CHAOS_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 0xDEAD_BEEF, u64::MAX];

fn experiment() -> Experiment {
    Experiment::builder()
        .batch_size(10)
        .epsilon(0.2)
        .attack("alie")
        .steps(6)
        .dataset_size(300)
        .build()
        .unwrap()
}

/// One run over the sim on the links `chaos` derives.
fn over_sim(exp: &Experiment, seed: u64, chaos: Option<u64>) -> RunHistory {
    SimBackend {
        chaos,
        ..SimBackend::default()
    }
    .run(exp, seed, None, &mut RunScratch::new())
    .unwrap()
}

/// A sim whose join gate and quorum tolerate one absent honest worker.
fn one_short(n_honest: usize) -> SimBackend {
    let deployment = Deployment {
        min_workers: Some(n_honest - 1),
        quorum: Some(n_honest - 1),
        ..Deployment::default()
    };
    SimBackend {
        deployment,
        ..SimBackend::default()
    }
}

/// The tentpole acceptance matrix: 8 fixed-seed fault plans × {sim,
/// sequential}, digest-equal — and each sim run replayed byte-identical.
#[test]
fn chaos_runs_are_digest_equal_to_sequential_across_eight_seeds() {
    let run_seed = 17;

    let exp = experiment();
    let reference = exp.run(run_seed).unwrap();

    for chaos in CHAOS_SEEDS {
        let first = over_sim(&exp, run_seed, Some(chaos));
        let second = over_sim(&exp, run_seed, Some(chaos));
        assert_eq!(
            first, second,
            "chaos seed {chaos:#x}: same seed must replay the same run"
        );
        assert_eq!(
            first.digest(),
            reference.digest(),
            "chaos seed {chaos:#x}: crash-free chaos must be digest-invisible \
             (sim {:#018x}, sequential {:#018x})",
            first.digest(),
            reference.digest()
        );
        assert_eq!(first, reference);
    }
}

/// Fault-free sim (`chaos: None`) is the degenerate case: clean
/// virtual links, still bit-identical to sequential — pinning the
/// transport extraction itself, independent of any fault plan.
#[test]
fn clean_sim_backend_matches_sequential() {
    let exp = experiment();
    let reference = exp.run(3).unwrap();
    let sim = over_sim(&exp, 3, None);
    assert_eq!(reference, sim);
}

/// Late joins under chaos: four fixed-seed fault plans where the last
/// honest worker is absent from the initial fleet and attaches via
/// `JOIN_FRESH` when a chosen step goes out (step 0 = during warmup).
/// The join itself rides the seeded chaos links — delayed, jittered,
/// possibly duplicated — so this pins that a mid-run attach is as
/// deterministic as everything else: each run replays bit-identically,
/// counts exactly one fresh join, and differs from the same chaos plan
/// with a full initial fleet.
#[test]
fn late_joiners_attach_mid_chaos_and_replay_bit_identically() {
    let exp = experiment();
    let n_honest = exp.config.honest_workers(exp.attack.is_some());
    let w = (n_honest - 1) as u32;
    let backend = one_short(n_honest);
    let run_seed = 17;
    let mut scratch = RunScratch::new();

    for (chaos, on_step) in [(1u64, 0u32), (8, 2), (0xDEAD_BEEF, 3), (u64::MAX, 5)] {
        let full_fleet = FaultPlan::from_seed(chaos, n_honest);
        let reference = backend
            .run_with_plan(&exp, run_seed, &full_fleet, None, &mut scratch)
            .unwrap();
        assert_eq!(reference.churn.joined_fresh, 0);

        let plan = FaultPlan::from_seed(chaos, n_honest).with_late_join(w, on_step);
        let first = backend
            .run_with_plan(&exp, run_seed, &plan, None, &mut scratch)
            .unwrap();
        let second = backend
            .run_with_plan(&exp, run_seed, &plan, None, &mut scratch)
            .unwrap();
        assert_eq!(
            first, second,
            "chaos seed {chaos:#x}, join at step {on_step}: late joins must replay"
        );
        assert_eq!(
            first.churn.joined_fresh, 1,
            "chaos seed {chaos:#x}: exactly one fresh mid-run attach"
        );
        assert!(
            first.churn.late_admits.iter().all(|&c| c == 0),
            "fresh joins are orthogonal to staleness admission (window 0 here)"
        );
        if on_step == 0 {
            // A warmup attach lands before any aggregation: the joiner
            // misses nothing, so the trajectory is identical to the
            // full-fleet run — fresh joins are timing, not content.
            assert_eq!(
                first, reference,
                "chaos seed {chaos:#x}: a warmup attach must be trajectory-invisible"
            );
        } else {
            assert_ne!(
                first, reference,
                "chaos seed {chaos:#x}: the joiner's missed rounds must show in the history"
            );
        }
    }
}

/// The staleness × churn smoke matrix CI's chaos digest step names:
/// `k ∈ {0, 2}` crossed with {crash-and-rejoin, late-join} on the sim
/// backend. Every cell must complete at quorum `n_honest − 1`, replay
/// bit-identically, and report the churn kind it was dealt — a cheap
/// end-to-end gate that graceful degradation holds in every quadrant,
/// not just the corners the focused suites pin.
#[test]
fn staleness_churn_matrix_completes_and_replays_in_every_quadrant() {
    let base = experiment();
    let n_honest = base.config.honest_workers(base.attack.is_some());
    let w = (n_honest - 1) as u32;
    let backend = one_short(n_honest);
    let run_seed = 21;
    let mut scratch = RunScratch::new();

    for window in [0u32, 2] {
        let mut exp = experiment();
        exp.config.staleness_window = window;
        for churn in ["crash", "late-join"] {
            let plan = match churn {
                "crash" => FaultPlan::clean(n_honest).with_crash(w, 2, 4),
                _ => FaultPlan::clean(n_honest).with_late_join(w, 3),
            };
            let first = backend
                .run_with_plan(&exp, run_seed, &plan, None, &mut scratch)
                .unwrap();
            let second = backend
                .run_with_plan(&exp, run_seed, &plan, None, &mut scratch)
                .unwrap();
            assert_eq!(first, second, "k = {window}, {churn}: replay diverged");
            match churn {
                "crash" => assert!(
                    first.churn.dropped_rounds[w as usize] > 0,
                    "k = {window}: the crashed worker must miss rounds"
                ),
                _ => assert_eq!(
                    first.churn.joined_fresh, 1,
                    "k = {window}: the late joiner must attach fresh"
                ),
            }
        }
    }
}

/// An all-honest topology (every worker a real sim session, no
/// server-side forgeries) holds under chaos too.
#[test]
fn chaos_holds_without_an_attack() {
    let exp = Experiment::builder()
        .batch_size(10)
        .steps(5)
        .dataset_size(300)
        .build()
        .unwrap();
    let reference = exp.run(9).unwrap();
    let sim = over_sim(&exp, 9, Some(42));
    assert_eq!(reference, sim);
}
