//! Cross-engine reproducibility: the TCP deployment must be a
//! bit-for-bit drop-in for the in-process engines, and deployment-shape
//! mistakes and rejected reports must surface as [`PipelineError::Spec`]
//! — not hangs.

use dpbyz_core::pipeline::{Experiment, PipelineError, Workload};
use dpbyz_net::{Deployment, SimBackend, TcpBackend};
use dpbyz_server::{LrSchedule, RunHistory, RunScratch};
use std::time::{Duration, Instant};

fn attacked_experiment() -> Experiment {
    Experiment::builder()
        .batch_size(10)
        .epsilon(0.2)
        .attack("alie")
        .steps(8)
        .dataset_size(300)
        .build()
        .unwrap()
}

fn over_tcp(
    exp: &Experiment,
    seed: u64,
    deployment: Deployment,
) -> Result<RunHistory, PipelineError> {
    TcpBackend(deployment).run(exp, seed, None, &mut RunScratch::new())
}

/// The tentpole acceptance property: same seed, two engines, one
/// history. The digest is additionally pinned so a silent cross-engine
/// drift (both moving together) still fails loudly.
#[test]
fn tcp_engine_is_bit_identical_to_sequential() {
    let seed = 17;

    let exp = attacked_experiment();
    let sequential = exp.run(seed).unwrap();
    let tcp = over_tcp(&exp, seed, Deployment::default()).unwrap();

    assert_eq!(sequential, tcp);
    assert_eq!(tcp.digest(), sequential.digest());
    assert_eq!(
        tcp.digest(),
        0xc734_d436_89ac_31bc,
        "pinned fixed-seed digest drifted: got {:#018x}",
        tcp.digest()
    );
}

/// An all-honest run (no attack armed) spawns every worker as a session
/// and still reproduces the sequential history exactly.
#[test]
fn tcp_engine_matches_without_an_attack() {
    let exp = Experiment::builder()
        .batch_size(10)
        .steps(6)
        .dataset_size(300)
        .build()
        .unwrap();
    let seed = 3;
    let reference = exp.run(seed).unwrap();
    let tcp = over_tcp(&exp, seed, Deployment::default()).unwrap();
    assert_eq!(reference, tcp);
}

/// `min_workers` larger than the worker count can never gate open; the
/// backend must refuse up front instead of idling until the join
/// deadline.
#[test]
fn impossible_min_workers_is_a_spec_error() {
    let deployment = Deployment {
        min_workers: Some(99),
        ..Deployment::default()
    };
    match over_tcp(&attacked_experiment(), 5, deployment) {
        Err(PipelineError::Spec(msg)) => {
            assert!(msg.contains("min_workers 99"), "{msg}");
            assert!(msg.contains("n_workers"), "{msg}");
        }
        Ok(_) => panic!("min_workers 99 > n_workers must not run"),
        Err(other) => panic!("expected Spec error, got {other}"),
    }
}

/// Byzantine colluders are simulated server-side, so a `min_workers`
/// between `n_honest` and `n_workers` would also hang — the error must
/// explain that only honest workers ever connect.
#[test]
fn min_workers_beyond_honest_names_the_server_side_simulation() {
    // n = 11, f = 5 ⇒ 6 honest sessions; 8 ≤ 11 but 8 > 6.
    let deployment = Deployment {
        min_workers: Some(8),
        ..Deployment::default()
    };
    match over_tcp(&attacked_experiment(), 5, deployment) {
        Err(PipelineError::Spec(msg)) => {
            assert!(msg.contains("honest"), "{msg}");
            assert!(msg.contains("server-side"), "{msg}");
        }
        Ok(_) => panic!("min_workers 8 > n_honest 6 must not run"),
        Err(other) => panic!("expected Spec error, got {other}"),
    }
}

/// A diverging run: honest gradients overflow and their reports become
/// non-finite. The wire treats such a report as a protocol violation (the
/// sim drops the frame; TCP closes the link), so the round misses its
/// quorum and the run ends with a typed error whose reason names the
/// rejected reports, on the sim and over TCP. The in-process engine has
/// no wire and aggregates the non-finite values.
#[test]
fn non_finite_honest_reports_end_a_sim_run_with_a_typed_error() {
    let exp = Experiment::builder()
        .workload(Workload::MeanEstimation {
            dim: 4,
            sigma: 10.0,
            data_seed: 5,
        })
        .workers(5, 0)
        .batch_size(1)
        .steps(6)
        .lr(LrSchedule::Constant(1e308))
        .momentum(0.0)
        .clip(1e9)
        .eval_every(0)
        .gar("average")
        .build()
        .unwrap();
    // Step 1 overflows the parameters; step 2's gradients are NaN.
    let in_process = exp.run(1).unwrap();
    assert!(in_process.grad_norm[0].is_finite());
    assert!(
        in_process.grad_norm[1].is_nan(),
        "{:?}",
        in_process.grad_norm
    );

    match SimBackend::default().run(&exp, 1, None, &mut RunScratch::new()) {
        Err(PipelineError::Spec(msg)) => {
            assert!(msg.contains("below quorum at step 2"), "{msg}");
            assert!(msg.contains("0 of 5 reported"), "{msg}");
            // The reason names what the session dropped: every honest
            // report of the round, each for a non-finite coordinate.
            assert!(
                msg.contains("5 reports rejected: gradient frame: coordinate 2 is not finite"),
                "{msg}"
            );
        }
        Ok(history) => panic!("non-finite reports were admitted: {history:?}"),
        Err(other) => panic!("expected Spec error, got {other}"),
    }

    // Over TCP each rejected report also closes its link, and a worker
    // that rejoins resends it, so only the cause is fixed, not the count.
    // The machine hears of each rejection, so the run ends once every
    // report is refused, not at the step deadline.
    let step_timeout = Duration::from_millis(1500);
    let deployment = Deployment {
        step_timeout_ms: 1500,
        ..Deployment::default()
    };
    let start = Instant::now();
    let outcome = over_tcp(&exp, 1, deployment);
    let took = start.elapsed();
    assert!(
        took < step_timeout / 3,
        "the TCP run took {took:?}, its step deadline is {step_timeout:?}"
    );
    match outcome {
        Err(PipelineError::Spec(msg)) => {
            assert!(msg.contains("below quorum at step 2"), "{msg}");
            assert!(
                msg.contains("reports rejected: gradient frame: coordinate 2 is not finite"),
                "{msg}"
            );
        }
        Ok(history) => panic!("non-finite reports were admitted: {history:?}"),
        Err(other) => panic!("expected Spec error, got {other}"),
    }
}
