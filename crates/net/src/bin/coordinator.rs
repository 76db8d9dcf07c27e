//! The coordinator process of the distributed engine.
//!
//! Binds the listener, optionally spawns a local worker fleet (sibling
//! `worker` binary, one process per honest worker), runs the full
//! coordinated training, and prints the history digest. With `--verify`
//! it re-runs the identical experiment on the in-process sequential
//! engine and exits nonzero unless the digests match byte for byte —
//! the CI `distributed-smoke` step.
//!
//! ```text
//! coordinator [--listen 127.0.0.1:0] [--workers 4] [--byzantine 0]
//!             [--attack ID] [--gar ID] [--epsilon E]
//!             [--steps 20] [--batch 10] [--seed 1]
//!             [--dataset-size 400] [--eval-every 0]
//!             [--min-workers M] [--quorum Q]
//!             [--staleness-window 0] [--staleness-damping 0.5]
//!             [--join-timeout-ms 10000] [--step-timeout-ms 10000]
//!             [--resume-window 8] [--spawn] [--verify]
//! ```
//!
//! The honest-worker count and the `--min-workers`/`--quorum` defaults
//! come from the same deployment rule as the `tcp` backend
//! ([`resolve_deployment`]); an out-of-range value exits with code 2.
//!
//! Without `--spawn`, the process prints the listen address and the job
//! spec JSON, then waits for externally launched workers (see the
//! `worker` binary and `docs/DEPLOYMENT.md`).

use dpbyz_core::pipeline::Experiment;
use dpbyz_net::backend::resolve_deployment;
use dpbyz_net::{CoordinatorConfig, JobSpec, TcpCoordinator};
use dpbyz_server::RunScratch;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn arg_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parsed_opt<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    arg_value(args, flag).map(|text| {
        text.parse().unwrap_or_else(|_| {
            eprintln!("coordinator: bad value for {flag}: {text}");
            std::process::exit(2);
        })
    })
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    parsed_opt(args, flag).unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    let listen = arg_value(&args, "--listen").unwrap_or_else(|| "127.0.0.1:0".into());
    let n_workers: usize = parsed(&args, "--workers", 4);
    let byzantine: usize = parsed(&args, "--byzantine", 0);
    let steps: u32 = parsed(&args, "--steps", 20);
    let batch: usize = parsed(&args, "--batch", 10);
    let seed: u64 = parsed(&args, "--seed", 1);
    let dataset_size: usize = parsed(&args, "--dataset-size", 400);
    let eval_every: u32 = parsed(&args, "--eval-every", 0);

    let mut builder = Experiment::builder()
        .workers(n_workers, byzantine)
        .steps(steps)
        .batch_size(batch)
        .dataset_size(dataset_size)
        .eval_every(eval_every);
    if let Some(gar) = arg_value(&args, "--gar") {
        builder = builder.gar(gar.as_str());
    }
    if let Some(attack) = arg_value(&args, "--attack") {
        builder = builder.attack(attack.as_str());
    }
    if let Some(eps) = arg_value(&args, "--epsilon") {
        builder = builder.epsilon(eps.parse().unwrap_or_else(|_| {
            eprintln!("coordinator: bad value for --epsilon: {eps}");
            std::process::exit(2);
        }));
    }
    let mut exp = match builder.build() {
        Ok(exp) => exp,
        Err(e) => {
            eprintln!("coordinator: invalid experiment: {e}");
            std::process::exit(2);
        }
    };
    // Bounded staleness: k > 0 admits a report up to k rounds old, damped
    // by λ^age server-side before the GAR sees it. k = 0 (the default)
    // keeps the strict digest-pinned semantics.
    exp.config.staleness_window = parsed(&args, "--staleness-window", 0);
    exp.config.staleness_damping = parsed(&args, "--staleness-damping", 0.5);
    let (n_honest, min_workers, quorum) = match resolve_deployment(
        "coordinator",
        &exp,
        parsed_opt(&args, "--min-workers"),
        parsed_opt(&args, "--quorum"),
    ) {
        Ok(deployment) => deployment,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    let spec = match JobSpec::from_experiment(&exp, seed) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("coordinator: {e}");
            std::process::exit(2);
        }
    };
    let spec_json = spec.to_json().expect("job spec serializes");

    let cfg = CoordinatorConfig {
        min_workers,
        quorum,
        join_timeout: Duration::from_millis(parsed(&args, "--join-timeout-ms", 10_000)),
        warmup_timeout: Duration::from_millis(parsed(&args, "--join-timeout-ms", 10_000)),
        step_timeout: Duration::from_millis(parsed(&args, "--step-timeout-ms", 10_000)),
        resume_window: parsed(&args, "--resume-window", 8),
    };

    let coordinator = match TcpCoordinator::bind(listen.as_str(), cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("coordinator: bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    let addr = coordinator
        .local_addr()
        .expect("bound socket has an address");
    println!("listening on {addr}");
    println!("spec {spec_json}");

    let mut children: Vec<Child> = Vec::new();
    if arg_present(&args, "--spawn") {
        let worker_bin = std::env::current_exe()
            .expect("own path")
            .parent()
            .expect("bin dir")
            .join("worker");
        for index in 0..n_honest {
            let child = Command::new(&worker_bin)
                .arg("--connect")
                .arg(addr.to_string())
                .arg("--index")
                .arg(index.to_string())
                .arg("--spec-json")
                .arg(&spec_json)
                .stdin(Stdio::null())
                .spawn()
                .unwrap_or_else(|e| {
                    eprintln!("coordinator: spawning {}: {e}", worker_bin.display());
                    std::process::exit(1);
                });
            children.push(child);
        }
        println!("spawned {n_honest} worker processes");
    }

    let trainer = exp.build_trainer().unwrap_or_else(|e| {
        eprintln!("coordinator: {e}");
        std::process::exit(1);
    });
    let mut scratch = RunScratch::new();
    let (core, _local_workers) = trainer.into_distributed_parts(seed, &mut scratch);
    let result = coordinator.run(core, n_honest, seed, &mut scratch);

    for mut child in children {
        let _ = child.wait();
    }

    let history = match result {
        Ok(history) => history,
        Err(e) => {
            eprintln!("coordinator: run failed: {e}");
            std::process::exit(1);
        }
    };
    let digest = history.digest();
    println!("digest {digest:016x}");
    println!(
        "final loss {:.6}, {} steps, seed {seed}",
        history.tail_loss(1),
        history.train_loss.len()
    );

    if arg_present(&args, "--verify") {
        let reference = exp.run(seed).unwrap_or_else(|e| {
            eprintln!("coordinator: in-process reference run failed: {e}");
            std::process::exit(1);
        });
        let ref_digest = reference.digest();
        if reference == history {
            println!("verify OK: distributed digest {digest:016x} == in-process {ref_digest:016x}");
        } else {
            eprintln!(
                "verify FAILED: distributed digest {digest:016x} != in-process {ref_digest:016x}"
            );
            std::process::exit(1);
        }
    }
}
