//! Cross-engine reproducibility: the TCP deployment must be a
//! bit-for-bit drop-in for the in-process engines, and deployment-shape
//! mistakes must surface as [`PipelineError::Spec`] — not hangs.

use dpbyz_core::pipeline::{Experiment, FigureConfig, PipelineError};
use dpbyz_core::ComponentSpec;

fn attacked_experiment() -> Experiment {
    Experiment::paper_figure(FigureConfig {
        batch_size: 10,
        epsilon: Some(0.2),
        attack: Some("alie".into()),
        steps: 8,
        dataset_size: 300,
        ..FigureConfig::default()
    })
    .unwrap()
}

/// The tentpole acceptance property: same seed, three engines, one
/// history. The digest is additionally pinned so a silent cross-engine
/// drift (all three moving together) still fails loudly.
#[test]
fn tcp_engine_is_bit_identical_to_sequential_and_threaded() {
    dpbyz_net::install();
    let seed = 17;

    let mut exp = attacked_experiment();
    exp.backend = ComponentSpec::new("sequential");
    let sequential = exp.run(seed).unwrap();

    exp.backend = ComponentSpec::new("threaded");
    let threaded = exp.run(seed).unwrap();

    exp.backend = ComponentSpec::new("tcp");
    let tcp = exp.run(seed).unwrap();

    assert_eq!(sequential, threaded);
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
    dpbyz_net::install();
    let mut exp = Experiment::paper_figure(FigureConfig {
        batch_size: 10,
        steps: 6,
        dataset_size: 300,
        ..FigureConfig::default()
    })
    .unwrap();
    let seed = 3;
    let reference = exp.run(seed).unwrap();

    exp.backend = ComponentSpec::new("tcp");
    let tcp = exp.run(seed).unwrap();
    assert_eq!(reference, tcp);
}

/// `min_workers` larger than the worker count can never gate open; the
/// backend must refuse up front instead of idling until the join
/// deadline.
#[test]
fn impossible_min_workers_is_a_spec_error() {
    dpbyz_net::install();
    let mut exp = attacked_experiment();
    exp.backend = ComponentSpec::new("tcp").with("min_workers", 99u64);
    match exp.run(5) {
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
    dpbyz_net::install();
    let mut exp = attacked_experiment();
    // n = 11, f = 5 ⇒ 6 honest sessions; 8 ≤ 11 but 8 > 6.
    exp.backend = ComponentSpec::new("tcp").with("min_workers", 8u64);
    match exp.run(5) {
        Err(PipelineError::Spec(msg)) => {
            assert!(msg.contains("honest"), "{msg}");
            assert!(msg.contains("server-side"), "{msg}");
        }
        Ok(_) => panic!("min_workers 8 > n_honest 6 must not run"),
        Err(other) => panic!("expected Spec error, got {other}"),
    }
}

/// Unknown backend ids list what IS registered — including `"tcp"` once
/// installed — so the fix is in the error message.
#[test]
fn unknown_backend_error_names_tcp_among_available_ids() {
    dpbyz_net::install();
    let mut exp = attacked_experiment();
    exp.backend = ComponentSpec::new("carrier-pigeon");
    match exp.run(1) {
        Err(PipelineError::Spec(msg)) => {
            assert!(msg.contains("carrier-pigeon"), "{msg}");
            assert!(msg.contains("tcp"), "{msg}");
            assert!(msg.contains("sequential"), "{msg}");
        }
        Ok(_) => panic!("unknown backend id must not run"),
        Err(other) => panic!("expected Spec error, got {other}"),
    }
}
