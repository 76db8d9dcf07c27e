//! The reconnect-equivalence regression: a worker that crashes mid-run
//! and resumes through the `Rejoin` handshake must leave **exactly** the
//! history of a worker that merely straggled those rounds.
//!
//! Why this must hold: the coordinator zeroes a non-reporting worker's
//! round via the same fault-injection semantics either way, and the ring
//! replay feeds the rejoining worker the *identical broadcast bytes* it
//! missed — so its RNG, momentum, and parameter state catch up bit for
//! bit. Churn therefore maps onto the paper's `f` accounting (a crashed
//! worker is indistinguishable from an omitted one, round by round)
//! instead of inventing a new failure mode.

use dpbyz_core::pipeline::Experiment;
use dpbyz_net::{Deployment, FaultPlan, SimBackend};
use dpbyz_server::RunScratch;

const STEPS: u32 = 8;
/// Past every (virtual) step deadline: a report held this long is
/// dropped from its round.
const PAST_DEADLINE_MS: u64 = 20_000;

fn experiment() -> Experiment {
    Experiment::builder()
        .batch_size(10)
        .steps(STEPS)
        .dataset_size(300)
        .build()
        .unwrap()
}

fn sim_backend(quorum: usize) -> SimBackend {
    SimBackend {
        deployment: Deployment {
            quorum: Some(quorum),
            ..Deployment::default()
        },
        ..SimBackend::default()
    }
}

/// Silent crash (no TCP-reset analogue: the coordinator waits out each
/// deadline, exactly as it would for a straggler) after step 2, rejoin
/// when step 5 goes out. The worker misses rounds 3 and 4; a straggler
/// whose reports for steps 3 and 4 arrive past the deadline misses the
/// same rounds — the histories must be bit-identical.
#[test]
fn crash_and_rejoin_is_bit_identical_to_a_straggler() {
    let exp = experiment();
    let n = exp.config.n_workers;
    let w = (n - 1) as u32;
    let backend = sim_backend(n - 1);
    let seed = 11;
    let mut scratch = RunScratch::new();

    let straggler_plan = FaultPlan::clean(n).with_grad_delay(w, 3, 4, PAST_DEADLINE_MS);
    let straggler = backend
        .run_with_plan(&exp, seed, &straggler_plan, None, &mut scratch)
        .unwrap();

    let crash_plan = FaultPlan::clean(n).with_crash(w, 2, 5);
    let rejoined = backend
        .run_with_plan(&exp, seed, &crash_plan, None, &mut scratch)
        .unwrap();

    assert_eq!(
        straggler, rejoined,
        "crash-and-rejoin diverged from the straggler schedule"
    );
    assert_eq!(straggler.digest(), rejoined.digest());
}

/// Same schedule, but the coordinator *notices* the crash (the TCP-reset
/// analogue): it surfaces as `Detached`, rounds advance opportunistically
/// instead of burning the deadline, and the reset also costs the worker
/// its in-flight step-2 report. Content-wise that equals a straggler
/// whose reports for steps 2–4 all arrive late — histories carry no
/// timing, so the digests must still match.
#[test]
fn detected_crash_rejoin_matches_the_straggler_schedule_too() {
    let exp = experiment();
    let n = exp.config.n_workers;
    let w = (n - 1) as u32;
    let backend = sim_backend(n - 1);
    let seed = 29;
    let mut scratch = RunScratch::new();

    let straggler_plan = FaultPlan::clean(n).with_grad_delay(w, 2, 4, PAST_DEADLINE_MS);
    let straggler = backend
        .run_with_plan(&exp, seed, &straggler_plan, None, &mut scratch)
        .unwrap();

    let crash_plan = FaultPlan::clean(n).with_crash(w, 2, 5).with_detection(true);
    let rejoined = backend
        .run_with_plan(&exp, seed, &crash_plan, None, &mut scratch)
        .unwrap();

    assert_eq!(
        straggler, rejoined,
        "detected crash-and-rejoin diverged from the straggler schedule"
    );
}

/// The rejoin must actually matter: the same crash with a rejoin trigger
/// that never fires leaves the worker zeroed for the rest of the run,
/// which is a *different* history — proving the equivalence above is
/// exercised by a real resume, not by the worker being dead weight.
#[test]
fn a_rejoin_that_never_happens_changes_the_history() {
    let exp = experiment();
    let n = exp.config.n_workers;
    let w = (n - 1) as u32;
    let backend = sim_backend(n - 1);
    let seed = 11;
    let mut scratch = RunScratch::new();

    let rejoin_plan = FaultPlan::clean(n).with_crash(w, 2, 5);
    let rejoined = backend
        .run_with_plan(&exp, seed, &rejoin_plan, None, &mut scratch)
        .unwrap();

    // Trigger step STEPS + 1 is never broadcast: the worker stays down.
    let dead_plan = FaultPlan::clean(n).with_crash(w, 2, STEPS + 1);
    let dead = backend
        .run_with_plan(&exp, seed, &dead_plan, None, &mut scratch)
        .unwrap();

    assert_ne!(
        rejoined, dead,
        "a worker that never resumed produced the same history as one that did"
    );
}

/// Scratch-buffer reuse across sim runs is bit-invisible: the same plan
/// run twice through one scratch yields byte-identical histories.
#[test]
fn sim_runs_are_reproducible_through_a_shared_scratch() {
    let exp = experiment();
    let n = exp.config.n_workers;
    let backend = sim_backend(n - 1);
    let plan = FaultPlan::clean(n).with_crash((n - 1) as u32, 2, 5);
    let mut scratch = RunScratch::new();
    let a = backend
        .run_with_plan(&exp, 7, &plan, None, &mut scratch)
        .unwrap();
    let b = backend
        .run_with_plan(&exp, 7, &plan, None, &mut scratch)
        .unwrap();
    assert_eq!(a, b);
    assert_eq!(a.digest(), b.digest());
}
