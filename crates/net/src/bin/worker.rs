//! A worker process of the distributed engine.
//!
//! Rebuilds its [`JobSpec`] (passed inline or as a file), materializes
//! the honest worker for its `--index` — same components, same RNG
//! stream as the in-process twin — and serves the coordinator's step
//! broadcasts until `DONE`.
//!
//! ```text
//! worker --connect HOST:PORT --index N (--spec-json JSON | --spec-file PATH)
//!        [--fresh-join]
//! ```
//!
//! A lost socket is not fatal: the worker reconnects and resumes its
//! session through `REJOIN`, exactly as the in-process `tcp` backend's
//! workers do.
//!
//! `--fresh-join` attaches a never-started worker to a run already in
//! flight: the first frame sent is `JOIN_FRESH` and the coordinator
//! replies with its resume-ring tail (the in-flight `STEP` carries the
//! model snapshot), so the worker starts computing at the current round
//! instead of aborting because the join phase closed.

use dpbyz_net::{run_worker, JobSpec, WorkerConfig};
use std::net::SocketAddr;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn arg_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    let addr: SocketAddr = match arg_value(&args, "--connect").map(|a| a.parse()) {
        Some(Ok(addr)) => addr,
        Some(Err(e)) => {
            eprintln!("worker: bad --connect address: {e}");
            std::process::exit(2);
        }
        None => {
            eprintln!("worker: --connect HOST:PORT is required");
            std::process::exit(2);
        }
    };
    let index: usize = match arg_value(&args, "--index").map(|v| v.parse()) {
        Some(Ok(index)) => index,
        _ => {
            eprintln!("worker: --index N is required");
            std::process::exit(2);
        }
    };
    let spec_text = match (
        arg_value(&args, "--spec-json"),
        arg_value(&args, "--spec-file"),
    ) {
        (Some(json), _) => json,
        (None, Some(path)) => std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("worker: reading {path}: {e}");
            std::process::exit(2);
        }),
        (None, None) => {
            eprintln!("worker: --spec-json JSON or --spec-file PATH is required");
            std::process::exit(2);
        }
    };

    let spec = match JobSpec::from_json(&spec_text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("worker: {e}");
            std::process::exit(2);
        }
    };
    let worker = match spec.worker(index) {
        Ok(worker) => worker,
        Err(e) => {
            eprintln!("worker: {e}");
            std::process::exit(2);
        }
    };

    let cfg = WorkerConfig {
        fresh_join: arg_present(&args, "--fresh-join"),
        ..WorkerConfig::for_run(spec.seed, worker.id())
    };
    match run_worker(addr, worker, cfg) {
        Ok(steps) => {
            println!("worker {index}: served {steps} steps");
        }
        Err(e) => {
            eprintln!("worker {index}: {e}");
            std::process::exit(1);
        }
    }
}
