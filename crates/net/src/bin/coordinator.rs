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
//!             [--resume-window 32] [--spawn] [--verify]
//! ```
//!
//! The five deployment flags set the fields of a [`Deployment`]
//! (`--join-timeout-ms` bounds both the join and the warmup phase); an
//! absent flag keeps the field's default, and [`Deployment::resolve`]
//! checks the result, so the honest-worker count and every default match
//! the in-process TCP backend. An unknown flag, a flag without its value
//! or with an unparsable one, or an out-of-range deployment exits with
//! code 2.
//!
//! Without `--spawn`, the process prints the listen address and the job
//! spec JSON, then waits for externally launched workers (see the
//! `worker` binary and `docs/DEPLOYMENT.md`).

mod args;

use args::Args;
use dpbyz_core::pipeline::Experiment;
use dpbyz_net::{Deployment, JobSpec, TcpCoordinator};
use dpbyz_server::RunScratch;
use std::process::{Child, Command, Stdio};

fn main() {
    let mut args = Args::new("coordinator");
    let listen = args
        .value("--listen")
        .unwrap_or_else(|| "127.0.0.1:0".into());
    let seed: u64 = args.parsed("--seed").unwrap_or(1);
    let (spawn, verify) = (args.present("--spawn"), args.present("--verify"));
    let mut builder = Experiment::builder()
        .workers(
            args.parsed("--workers").unwrap_or(4),
            args.parsed("--byzantine").unwrap_or(0),
        )
        .steps(args.parsed("--steps").unwrap_or(20))
        .batch_size(args.parsed("--batch").unwrap_or(10))
        .dataset_size(args.parsed("--dataset-size").unwrap_or(400))
        .eval_every(args.parsed("--eval-every").unwrap_or(0));
    if let Some(gar) = args.value("--gar") {
        builder = builder.gar(gar.as_str());
    }
    if let Some(attack) = args.value("--attack") {
        builder = builder.attack(attack.as_str());
    }
    if let Some(eps) = args.parsed("--epsilon") {
        builder = builder.epsilon(eps);
    }
    // Bounded staleness: k > 0 admits a report up to k rounds old, damped
    // by λ^age server-side before the GAR sees it. k = 0 (the default)
    // keeps the strict digest-pinned semantics.
    if let Some(k) = args.parsed("--staleness-window") {
        builder = builder.staleness_window(k);
    }
    if let Some(lambda) = args.parsed("--staleness-damping") {
        builder = builder.staleness_damping(lambda);
    }
    let d = Deployment::default();
    let join_timeout_ms = args.parsed("--join-timeout-ms");
    let deployment = Deployment {
        min_workers: args.parsed("--min-workers"),
        quorum: args.parsed("--quorum"),
        join_timeout_ms: join_timeout_ms.unwrap_or(d.join_timeout_ms),
        warmup_timeout_ms: join_timeout_ms.unwrap_or(d.warmup_timeout_ms),
        step_timeout_ms: args
            .parsed("--step-timeout-ms")
            .unwrap_or(d.step_timeout_ms),
        resume_window: args.parsed("--resume-window").unwrap_or(d.resume_window),
    };
    args.finish();

    let exp = builder
        .build()
        .unwrap_or_else(|e| args.exit(2, format_args!("invalid experiment: {e}")));
    let machine = deployment
        .resolve("coordinator", &exp.config, exp.attack.is_some())
        .unwrap_or_else(|e| args.exit(2, e));
    let n_honest = machine.n_workers;
    let spec_json = JobSpec::from_experiment(&exp, seed)
        .unwrap_or_else(|e| args.exit(2, e))
        .to_json()
        .expect("job spec serializes");

    let coordinator = TcpCoordinator::bind(listen.as_str())
        .unwrap_or_else(|e| args.exit(1, format_args!("bind {listen}: {e}")));
    let addr = coordinator
        .local_addr()
        .expect("bound socket has an address");
    println!("listening on {addr}");
    println!("spec {spec_json}");

    let mut children: Vec<Child> = Vec::new();
    if spawn {
        let worker_bin = std::env::current_exe()
            .expect("own path")
            .parent()
            .expect("bin dir")
            .join("worker");
        for index in 0..n_honest {
            let (addr, index) = (addr.to_string(), index.to_string());
            let child = Command::new(&worker_bin)
                .args([
                    "--connect",
                    &addr,
                    "--index",
                    &index,
                    "--spec-json",
                    &spec_json,
                ])
                .stdin(Stdio::null())
                .spawn()
                .unwrap_or_else(|e| {
                    args.exit(1, format_args!("spawning {}: {e}", worker_bin.display()))
                });
            children.push(child);
        }
        println!("spawned {n_honest} worker processes");
    }

    let trainer = exp.build_trainer().unwrap_or_else(|e| args.exit(1, e));
    let mut scratch = RunScratch::new();
    let (core, _local_workers) = trainer.into_distributed_parts(seed, &mut scratch);
    let result = coordinator.run(core, machine, deployment.resume_window, seed, &mut scratch);

    for mut child in children {
        let _ = child.wait();
    }

    let history = result.unwrap_or_else(|e| args.exit(1, format_args!("run failed: {e}")));
    let digest = history.digest();
    println!("digest {digest:016x}");
    println!(
        "final loss {:.6}, {} steps, seed {seed}",
        history.tail_loss(1),
        history.train_loss.len()
    );

    if verify {
        let reference = exp
            .run(seed)
            .unwrap_or_else(|e| args.exit(1, format_args!("in-process reference run failed: {e}")));
        let ref_digest = reference.digest();
        if reference == history {
            println!("verify OK: distributed digest {digest:016x} == in-process {ref_digest:016x}");
        } else {
            let diff = format!("distributed digest {digest:016x} != in-process {ref_digest:016x}");
            args.exit(1, format_args!("verify FAILED: {diff}"));
        }
    }
}
