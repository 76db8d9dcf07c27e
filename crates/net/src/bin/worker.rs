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
//! An unknown flag, or a flag without its value, exits with code 2.
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

mod args;

use args::Args;
use dpbyz_net::{run_worker, JobSpec};
use std::net::SocketAddr;

fn main() {
    let mut args = Args::new("worker");
    let addr: Option<SocketAddr> = args.parsed("--connect");
    let index: Option<usize> = args.parsed("--index");
    let spec_json = args.value("--spec-json");
    let spec_file = args.value("--spec-file");
    let fresh_join = args.present("--fresh-join");
    args.finish();

    let addr = addr.unwrap_or_else(|| args.exit(2, "--connect HOST:PORT is required"));
    let index = index.unwrap_or_else(|| args.exit(2, "--index N is required"));
    let spec_text = match (spec_json, spec_file) {
        (Some(json), _) => json,
        (None, Some(path)) => std::fs::read_to_string(&path)
            .unwrap_or_else(|e| args.exit(2, format_args!("reading {path}: {e}"))),
        (None, None) => args.exit(2, "--spec-json JSON or --spec-file PATH is required"),
    };
    let spec = JobSpec::from_json(&spec_text).unwrap_or_else(|e| args.exit(2, e));
    let worker = spec.worker(index).unwrap_or_else(|e| args.exit(2, e));

    let steps = run_worker(addr, worker, spec.seed, fresh_join)
        .unwrap_or_else(|e| args.exit(1, format_args!("slot {index}: {e}")));
    println!("worker {index}: served {steps} steps");
}
