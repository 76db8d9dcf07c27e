//! The real thing: coordinator and workers as separate OS processes.
//!
//! Spawns the `coordinator` binary with `--spawn --verify`, which forks
//! four `worker` processes, trains over localhost TCP, and compares the
//! resulting digest against an in-process sequential run of the same
//! experiment. This is the same invocation the CI `distributed-smoke`
//! step runs.

use std::process::Command;

#[test]
fn spawned_worker_processes_reproduce_the_in_process_digest() {
    let out = Command::new(env!("CARGO_BIN_EXE_coordinator"))
        .args([
            "--spawn",
            "--workers",
            "4",
            "--steps",
            "10",
            "--seed",
            "1",
            "--dataset-size",
            "300",
            "--verify",
        ])
        .output()
        .expect("coordinator binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "coordinator exited with {:?}\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status.code()
    );
    assert!(stdout.contains("verify OK"), "stdout:\n{stdout}");
    assert!(stdout.contains("digest "), "stdout:\n{stdout}");
}

#[test]
fn coordinator_binary_rejects_an_out_of_range_deployment() {
    // n = 11, f = 2 under attack ⇒ 9 honest workers: neither a join gate
    // nor a quorum above 9 can ever be met, so both exit 2 before binding.
    // A misspelt flag, or a flag without its value, exits 2 the same way
    // instead of running with the default.
    for (extra, expected) in [
        (&["--min-workers", "10"][..], "exceeds the 9 honest"),
        (&["--quorum", "10"], "exceeds the 9 honest"),
        (&["--quorom", "3"], "--quorom"),
        (&["--quorum"], "--quorum"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_coordinator"))
            .args(["--workers", "11", "--byzantine", "2", "--attack", "alie"])
            .args(extra)
            .output()
            .expect("coordinator binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(stderr.contains(expected), "{extra:?}: {stderr}");
    }
}

#[test]
fn coordinator_binary_validates_the_staleness_flags() {
    // The damping must lie in (0, 1]: 7.5 is refused with exit 2 before
    // binding, like any other invalid experiment knob.
    let out = Command::new(env!("CARGO_BIN_EXE_coordinator"))
        .args(["--spawn", "--workers", "4", "--steps", "4"])
        .args(["--staleness-window", "1", "--staleness-damping", "7.5"])
        .arg("--verify")
        .output()
        .expect("coordinator binary runs");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(
        out.status.code(),
        Some(2),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("staleness damping") && stderr.contains("7.5"),
        "{stderr}"
    );
    assert!(
        !stdout.contains("listening"),
        "bound before validating: {stdout}"
    );
}

/// A job spec with n = 11, f = 5 under attack: honest slots `0..6`.
const SPEC: &str = r#"{"workload":{"PhishingLike":{"data_seed":1,"size":100}},"config":{"n_workers":11,"n_byzantine":5,"batch_size":10,"steps":2,"lr":{"Constant":2.0},"momentum":0.99,"momentum_mode":"Worker","clip":0.01,"eval_every":0,"attack_visibility":"Submitted","drop_rate":0.0,"gradient_ema":null,"batch_growth":null,"agg_threads":1,"staleness_window":0,"staleness_damping":0.5},"gar":{"id":"mda","params":{}},"attack":{"id":"alie","params":{}},"budget":null,"mechanism":{"id":"gaussian","params":{}},"dp_reference_g_max":null,"seed":1}"#;

#[test]
fn worker_binary_rejects_a_byzantine_index() {
    // Index 7 is a Byzantine slot: refused before any socket traffic.
    let out = Command::new(env!("CARGO_BIN_EXE_worker"))
        .args([
            "--connect",
            "127.0.0.1:9",
            "--index",
            "7",
            "--spec-json",
            SPEC,
        ])
        .output()
        .expect("worker binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("honest"), "stderr:\n{stderr}");
}

#[test]
fn worker_binary_rejects_an_unknown_flag() {
    // An otherwise valid invocation with a misspelt flag, or a flag
    // without its value, exits 2 naming it before connecting.
    for (extra, expected) in [
        (&["--quorom", "3"][..], "--quorom"),
        (&["--fresh-joinn"], "--fresh-joinn"),
        (&["--spec-file"], "--spec-file"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_worker"))
            .args([
                "--connect",
                "127.0.0.1:9",
                "--index",
                "0",
                "--spec-json",
                SPEC,
            ])
            .args(extra)
            .output()
            .expect("worker binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(stderr.contains(expected), "{extra:?}: {stderr}");
    }
}
