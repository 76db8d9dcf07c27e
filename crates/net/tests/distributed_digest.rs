//! Cross-engine reproducibility: the TCP deployment must be a
//! bit-for-bit drop-in for the in-process engines, and deployment-shape
//! mistakes and rejected reports must surface as [`PipelineError::Spec`]
//! — not hangs.

use dpbyz_core::pipeline::{Experiment, FigureConfig, PipelineError, Workload};
use dpbyz_core::{ComponentSpec, RegistryError};
use dpbyz_server::LrSchedule;

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

/// The tentpole acceptance property: same seed, two engines, one
/// history. The digest is additionally pinned so a silent cross-engine
/// drift (both moving together) still fails loudly.
#[test]
fn tcp_engine_is_bit_identical_to_sequential() {
    dpbyz_net::install();
    let seed = 17;

    let mut exp = attacked_experiment();
    exp.backend = ComponentSpec::new("sequential");
    let sequential = exp.run(seed).unwrap();

    exp.backend = ComponentSpec::new("tcp");
    let tcp = exp.run(seed).unwrap();

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

/// A deployment knob of the wrong type, or an unknown one, is refused,
/// not read as absent: neither `quorum: "3"` nor a misspelt `qourum`
/// may quietly run with the default quorum.
#[test]
fn wrong_typed_tcp_knob_is_rejected() {
    dpbyz_net::install();
    let mut exp = attacked_experiment();
    for (key, spec) in [
        ("quorum", ComponentSpec::new("tcp").with("quorum", "3")),
        ("qourum", ComponentSpec::new("tcp").with("qourum", 3u64)),
    ] {
        exp.backend = spec;
        match exp.run(5) {
            Err(PipelineError::Registry(RegistryError::Build { id, message })) => {
                assert_eq!(id, "tcp");
                assert!(message.contains(key), "{message}");
            }
            Ok(_) => panic!("`{key}` must not run"),
            Err(other) => panic!("`{key}`: expected a build error, got {other}"),
        }
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

/// A diverging run: honest gradients overflow and their reports become
/// non-finite. The wire treats such a report as a protocol violation (the
/// sim drops the frame; TCP closes the link), so the round misses its
/// quorum and the run ends with a typed error. The in-process engine has
/// no wire and aggregates the non-finite values.
#[test]
fn non_finite_honest_reports_end_a_sim_run_with_a_typed_error() {
    dpbyz_net::install();
    let mut exp = Experiment::builder()
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

    exp.backend = ComponentSpec::new("sim");
    match exp.run(1) {
        Err(PipelineError::Spec(msg)) => {
            assert!(msg.contains("below quorum at step 2"), "{msg}");
            assert!(msg.contains("0 of 5 reported"), "{msg}");
        }
        Ok(history) => panic!("non-finite reports were admitted: {history:?}"),
        Err(other) => panic!("expected Spec error, got {other}"),
    }
}
