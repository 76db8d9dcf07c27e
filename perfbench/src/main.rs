//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-seq|stress-d1e5|paper-sim-chaos> --seed <n> \
//!     --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! One invocation runs one workload in this process: it times the set-up
//! several times, runs one untimed warm-up repetition at the default
//! seed and checks its pinned digest, then runs full training runs over
//! consecutive seeds for `--seconds` wall seconds, checking every one.
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! it runs every seed untraced and traced, asserts the two histories are
//! bit-identical, and prints the per-layer metrics. The last line of
//! standard output is the result object; the line before it carries the
//! provenance of the numbers. `--smoke` shrinks every run to a handful of
//! steps (the benchmark's own tests use it).

mod runs;
mod trace;
mod workloads;

use runs::{Counts, GapObserver};
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trace::Span;
use workloads::{Engine, Spec};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Set-ups timed per invocation; `setup_s` is their median.
const SETUP_REPS: usize = 15;

struct Args {
    workload: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                workload = Some(workloads::find(&value).ok_or_else(|| {
                    format!("unknown workload `{value}`; known: {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(workloads::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(result) => {
            println!("{}", result.provenance);
            println!("{}", result.json());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!(
                "perfbench: workload {} seed {}: {e}",
                args.workload.name, args.seed
            );
            ExitCode::FAILURE
        }
    }
}

/// A metric as printed: name, value, unit.
struct Metric(&'static str, f64, &'static str);

struct BenchResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    provenance: String,
}

impl BenchResult {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, Metric(name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; a check fails instead.
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of a non-empty sample.
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The tail of a latency sample: the highest of p99 and p90 with at least
/// ten samples beyond it (nearest rank), else the maximum. Returns the
/// value and the percentile used.
fn tail(xs: &[f64]) -> (f64, &'static str) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for (p, label) in [(0.99, "p99"), (0.90, "p90")] {
        let rank = ((p * n as f64).ceil() as usize).max(1);
        if n - rank >= 10 {
            return (v[rank - 1], label);
        }
    }
    (v.last().copied().unwrap_or(f64::NAN), "max")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// Where and how the numbers were taken.
fn provenance(args: &Args, details: &[(&str, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let git_rev = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable (not a git checkout)".into());
    let mut out = format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"smoke\": {}, \
         \"seconds\": {}, \"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \"git_rev\": {}",
        json_str(args.workload.name),
        args.seed,
        args.trace,
        args.smoke,
        args.seconds,
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&git_rev),
    );
    for (key, value) in details {
        let _ = write!(out, ", \"{key}\": {value}");
    }
    out.push_str("}}");
    out
}

/// Checks one repetition's history for the shape every run must have.
fn check_shape(history: &dpbyz::RunHistory, steps: u32) -> Result<(), String> {
    if history.train_loss.len() != steps as usize {
        return Err(format!(
            "history has {} steps, expected {steps}",
            history.train_loss.len()
        ));
    }
    if !history.train_loss.iter().all(|x| x.is_finite()) {
        return Err("non-finite training loss".into());
    }
    if !history.final_params.iter().all(|x| x.is_finite()) {
        return Err("non-finite final parameters".into());
    }
    Ok(())
}

fn sink() -> Arc<Mutex<Vec<f64>>> {
    Arc::new(Mutex::new(Vec::new()))
}

/// Wall ms of one set-up's two parts: input generation, and the
/// experiment build plus the first `build_trainer`.
struct SetupMs {
    gen: f64,
    build: f64,
}

/// One timed set-up: everything before the first step.
fn set_up(spec: &Spec, seed: u64, steps: u32) -> Result<(dpbyz::Experiment, SetupMs), String> {
    let start = Instant::now();
    let inputs = workloads::generate(spec.cell, seed);
    let generated = Instant::now();
    let exp = workloads::experiment(&inputs, steps).map_err(|e| e.to_string())?;
    drop(exp.build_trainer().map_err(|e| e.to_string())?);
    let time = SetupMs {
        gen: ms(generated - start),
        build: ms(generated.elapsed()),
    };
    Ok((exp, time))
}

/// A uniform sample of at most `cap` round gaps (Algorithm R, fixed
/// seed): the benchmark's own memory stops growing once it is full, so
/// `peak_rss_mb` measures the program rather than the run length.
struct Reservoir {
    cap: usize,
    seen: usize,
    kept: Vec<f64>,
    rng: dpbyz::tensor::Prng,
}

impl Reservoir {
    fn new(cap: usize) -> Self {
        Reservoir {
            cap,
            seen: 0,
            kept: Vec::with_capacity(cap),
            rng: dpbyz::tensor::Prng::seed_from_u64(0x5EED),
        }
    }

    fn push(&mut self, gap: f64) {
        self.seen += 1;
        if self.kept.len() < self.cap {
            self.kept.push(gap);
        } else {
            let slot = self.rng.index(self.seen);
            if slot < self.cap {
                self.kept[slot] = gap;
            }
        }
    }
}

/// Round gaps kept for `round_ms_p50` and `round_ms_tail`.
const GAP_SAMPLE: usize = 200_000;

fn bench(args: &Args) -> Result<BenchResult, String> {
    let spec = &args.workload;
    let steps = if args.smoke {
        spec.smoke_steps
    } else {
        spec.steps
    };
    let min_reps = if args.smoke { 2 } else { spec.min_reps };
    let setup_reps = if args.smoke { 2 } else { SETUP_REPS };
    let budget = Duration::from_secs_f64(if args.smoke { 0.0 } else { args.seconds });
    let fail = |seed: u64, reason: &str| {
        eprintln!(
            "perfbench: check failed: workload {} seed {} (run seed {seed}): {reason}",
            spec.name, args.seed
        );
    };

    // The first set-up builds the experiment every repetition runs; the
    // others are spread over the timed phase, so their median samples the
    // host over the whole invocation rather than over one instant.
    let (exp, first) = set_up(spec, args.seed, steps)?;
    let mut setups = vec![first];

    // Warm-up at the default seed: untimed, checked against the pin.
    let mut scratch = dpbyz::RunScratch::new();
    let pinned = if args.smoke {
        spec.smoke_pinned
    } else {
        spec.pinned
    };
    let warm_exp = workloads::experiment(
        &workloads::generate(spec.cell, workloads::DEFAULT_SEED),
        steps,
    )
    .map_err(|e| e.to_string())?;
    let warm_seed = workloads::run_seed(workloads::DEFAULT_SEED, 0);
    let warm = runs::run_plain(spec.engine, &warm_exp, warm_seed, &mut scratch, None)?;
    let mut correct = true;
    if warm.history.digest() != pinned {
        fail(
            warm_seed,
            &format!(
                "warm-up digest {:#018x} differs from the pinned {pinned:#018x}",
                warm.history.digest()
            ),
        );
        correct = false;
    }
    if args.trace {
        let (traced, _) = runs::run_traced(
            spec,
            &warm_exp,
            warm_seed,
            &mut scratch,
            Box::new(GapObserver::new(steps, sink())),
        )?;
        if traced.history != warm.history {
            fail(warm_seed, "traced warm-up history differs from untraced");
            correct = false;
        }
    }
    drop(warm_exp);

    trace::reset();
    let mut rep_secs: Vec<f64> = Vec::new();
    let mut gaps = Reservoir::new(GAP_SAMPLE);
    let mut final_losses = Vec::new();
    let (mut traced_s, mut plain_s) = (0.0, 0.0);
    let mut counts = Counts::default();
    let mut virtual_ms = 0u64;
    let (mut attempted, mut failed) = (0usize, 0usize);
    let phase = Instant::now();
    while attempted < min_reps || phase.elapsed() < budget {
        if setups.len() < setup_reps
            && phase.elapsed() >= budget.mul_f64(setups.len() as f64 / setup_reps as f64)
        {
            setups.push(set_up(spec, args.seed, steps)?.1);
        }
        let seed = workloads::run_seed(args.seed, attempted);
        attempted += 1;
        let rep_gaps = sink();
        let observer = GapObserver::new(steps, rep_gaps.clone());
        let start = Instant::now();
        let plain = runs::run_plain(
            spec.engine,
            &exp,
            seed,
            &mut scratch,
            Some(Box::new(observer)),
        );
        let elapsed = start.elapsed().as_secs_f64();
        let checked = plain.and_then(|out| {
            check_shape(&out.history, steps)?;
            if args.trace {
                let start = Instant::now();
                let (traced, c) = runs::run_traced(
                    spec,
                    &exp,
                    seed,
                    &mut scratch,
                    Box::new(GapObserver::new(steps, sink())),
                )?;
                traced_s += start.elapsed().as_secs_f64();
                plain_s += elapsed;
                if traced.history != out.history || traced.virtual_ms != out.virtual_ms {
                    return Err("traced history differs from untraced".into());
                }
                counts.add(c);
            } else if spec.engine == Engine::Sim {
                let reference =
                    runs::run_plain(Engine::Sequential, &exp, seed, &mut scratch, None)?.history;
                if reference.digest() != out.history.digest() {
                    return Err(format!(
                        "sim digest {:#018x} differs from the sequential {:#018x}",
                        out.history.digest(),
                        reference.digest()
                    ));
                }
            }
            virtual_ms += out.virtual_ms.unwrap_or(0);
            Ok(out.history.final_loss())
        });
        match checked {
            Ok(loss) => {
                rep_secs.push(elapsed);
                let rep_gaps = rep_gaps.lock().expect("the run has finished");
                rep_gaps.iter().for_each(|&gap| gaps.push(gap));
                if final_losses.len() < min_reps {
                    final_losses.push(loss);
                }
            }
            Err(reason) => {
                fail(seed, &reason);
                failed += 1;
            }
        }
    }
    while setups.len() < setup_reps {
        setups.push(set_up(spec, args.seed, steps)?.1);
    }
    correct &= failed == 0;
    if rep_secs.is_empty() {
        return Err("no repetition passed its check".into());
    }
    let rounds = (rep_secs.len() as u64 * u64::from(steps)) as f64;
    let setup_part = |part: fn(&SetupMs) -> f64| setups.iter().map(part).collect::<Vec<f64>>();

    let mut details = vec![
        ("repetitions", attempted.to_string()),
        ("steps_per_repetition", steps.to_string()),
        ("setup_repetitions", setup_reps.to_string()),
        ("pinned_digest", json_str(&format!("{pinned:#018x}"))),
    ];
    let metrics = if args.trace {
        let busy = |s: Span| trace::busy_ns(s) as f64 / 1e6 / rounds;
        let worker_leaves =
            busy(Span::Batch) + busy(Span::Loss) + busy(Span::Grad) + busy(Span::Noise);
        let server_leaves = busy(Span::Forge) + busy(Span::Agg);
        let wall = traced_s * 1e3 / rounds;
        // The residuals: worker- and server-side self time, and what the
        // named spans leave of the traced wall time.
        let (worker_self, server_self, bcast, spanned) = match spec.engine {
            Engine::Sequential => (
                busy(Span::Worker) - worker_leaves,
                busy(Span::Round) - server_leaves,
                busy(Span::Params),
                busy(Span::Worker) + busy(Span::Round) + busy(Span::Params),
            ),
            // The simulated workers compute inside `poll`, and
            // `process_round` runs inside `drive`.
            Engine::Sim => (
                busy(Span::Poll) - worker_leaves,
                busy(Span::Drive) - busy(Span::Poll) - busy(Span::Bcast) - server_leaves,
                busy(Span::Bcast),
                busy(Span::Drive),
            ),
        };
        let per_round = |n: u64| n as f64 / rounds;
        vec![
            Metric("data.batch_ms", busy(Span::Batch), "ms"),
            Metric("models.loss_ms", busy(Span::Loss), "ms"),
            Metric("models.grad_ms", busy(Span::Grad), "ms"),
            Metric("dp.noise_ms", busy(Span::Noise), "ms"),
            Metric("attacks.forge_ms", busy(Span::Forge), "ms"),
            Metric("gars.agg_ms", busy(Span::Agg), "ms"),
            Metric("worker.self_ms", worker_self, "ms"),
            Metric("server.self_ms", server_self, "ms"),
            Metric("net.bcast_ms", bcast, "ms"),
            Metric("trace.loop_self_ms", wall - spanned, "ms"),
            Metric("trace.wall_ms", wall, "ms"),
            Metric("trace.overhead", traced_s / plain_s, "ratio"),
            Metric(
                "server.allocs_per_round",
                counts.steady_allocs as f64 / counts.steady_rounds.max(1) as f64,
                "count",
            ),
            Metric("net.polls_per_round", per_round(counts.polls), "count"),
            Metric("net.idles_per_round", per_round(counts.idles), "count"),
            Metric("net.events_per_round", per_round(counts.events), "count"),
            Metric(
                "net.virtual_ms_per_round",
                per_round(virtual_ms),
                "virtual-ms",
            ),
            Metric("data.gen_ms", median(&setup_part(|t| t.gen)), "ms"),
            Metric("core.build_ms", median(&setup_part(|t| t.build)), "ms"),
        ]
    } else {
        let (tail_ms, percentile) = tail(&gaps.kept);
        details.push(("rounds", gaps.seen.to_string()));
        details.push(("round_samples", gaps.kept.len().to_string()));
        details.push(("round_ms_tail_percentile", json_str(percentile)));
        vec![
            Metric("steps_per_s", f64::from(steps) / median(&rep_secs), "1/s"),
            Metric("round_ms_p50", median(&gaps.kept), "ms"),
            Metric("round_ms_tail", tail_ms, "ms"),
            Metric(
                "setup_s",
                median(&setup_part(|t| t.gen + t.build)) / 1e3,
                "s",
            ),
            Metric("peak_rss_mb", peak_rss_mb(), "MB"),
            Metric(
                "final_loss",
                final_losses.iter().sum::<f64>() / final_losses.len() as f64,
                "loss",
            ),
            Metric(
                "ok_run_ratio",
                rep_secs.len() as f64 / attempted as f64,
                "ratio",
            ),
        ]
    };
    correct &= metrics.iter().all(|m| m.1.is_finite());
    if spec.engine == Engine::Sim {
        details.push(("chaos_seed", workloads::CHAOS_SEED.to_string()));
    }
    Ok(BenchResult {
        correct,
        attempted,
        failed,
        metrics,
        provenance: provenance(args, &details),
    })
}
