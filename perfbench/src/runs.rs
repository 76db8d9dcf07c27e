//! One repetition — a full training run at one seed — untraced or traced.

use crate::trace::{self, Span, TimedAttack, TimedGar, TimedMechanism, TimedModel, TimedSource};
use crate::workloads::{self, Engine, Spec};
use dpbyz::data::sampler::{BatchSource, DatasetSource, SamplingMode};
use dpbyz::data::synthetic::MeanEstimationSource;
use dpbyz::models::{LogisticRegression, LossKind, Model, QuadraticMean};
use dpbyz::net::{drive, MachineConfig, SimNet, Transport};
use dpbyz::registry;
use dpbyz::server::{HonestWorker, ServerCore, WorkerOutput};
use dpbyz::tensor::Vector;
use dpbyz::{Experiment, RunHistory, RunObserver, RunScratch, StepMetrics, Trainer, Workload};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// First step of the steady-state window `server.allocs_per_round`
/// counts: the first rounds size every recycled buffer.
pub const STEADY_FROM: u32 = 3;

/// Records the wall gap between consecutive `on_step` calls. Passive: it
/// reads a clock and nothing else, so histories stay bit-identical.
pub struct GapObserver {
    last: Option<Instant>,
    gaps_ms: Vec<f64>,
    sink: Arc<Mutex<Vec<f64>>>,
}

impl GapObserver {
    /// An observer appending its gaps to `sink` when the run finishes.
    pub fn new(steps: u32, sink: Arc<Mutex<Vec<f64>>>) -> Self {
        GapObserver {
            last: None,
            gaps_ms: Vec::with_capacity(steps as usize),
            sink,
        }
    }
}

impl RunObserver for GapObserver {
    fn on_step(&mut self, _metrics: &StepMetrics<'_>) {
        let now = Instant::now();
        if let Some(last) = self.last {
            self.gaps_ms.push((now - last).as_secs_f64() * 1e3);
        }
        self.last = Some(now);
    }

    fn on_finish(&mut self, _history: &RunHistory) {
        self.sink
            .lock()
            .expect("no thread panics while holding the gap sink")
            .append(&mut self.gaps_ms);
    }
}

/// What one repetition produced.
pub struct Outcome {
    /// The run's history.
    pub history: RunHistory,
    /// Virtual ms on the sim clock when `drive` returned (sim only).
    pub virtual_ms: Option<u64>,
}

/// Per-repetition layer counts of a traced run that are not busy times.
#[derive(Default, Clone, Copy)]
pub struct Counts {
    /// Heap allocations in the steady-state window.
    pub steady_allocs: u64,
    /// Rounds in the steady-state window.
    pub steady_rounds: u64,
    /// `Transport::poll` calls.
    pub polls: u64,
    /// `Transport::idle` calls.
    pub idles: u64,
    /// Events decoded by `poll`.
    pub events: u64,
}

impl Counts {
    /// Adds another repetition's counts.
    pub fn add(&mut self, other: Counts) {
        self.steady_allocs += other.steady_allocs;
        self.steady_rounds += other.steady_rounds;
        self.polls += other.polls;
        self.idles += other.idles;
        self.events += other.events;
    }
}

/// One untraced repetition on `engine`.
pub fn run_plain(
    engine: Engine,
    exp: &Experiment,
    seed: u64,
    scratch: &mut RunScratch,
    observer: Option<Box<dyn RunObserver>>,
) -> Result<Outcome, String> {
    let mut trainer = exp.build_trainer().map_err(|e| e.to_string())?;
    if let Some(observer) = observer {
        trainer = trainer.observer(observer);
    }
    match engine {
        Engine::Sequential => Ok(Outcome {
            history: trainer
                .run_with_scratch(seed, scratch)
                .map_err(|e| e.to_string())?,
            virtual_ms: None,
        }),
        Engine::Sim => {
            let (core, workers) = trainer.into_distributed_parts(seed, scratch);
            let cfg = machine_config(&core, workers.len());
            let mut net = sim_net(&core, workers, seed);
            let history = drive(&mut net, core, cfg, seed, scratch).map_err(|e| e.to_string())?;
            Ok(Outcome {
                history,
                virtual_ms: Some(net.now_ms()),
            })
        }
    }
}

/// The `sim` backend's deployment defaults: every honest worker must
/// join and report each round.
fn machine_config(core: &ServerCore, n_honest: usize) -> MachineConfig {
    MachineConfig {
        n_workers: n_honest,
        min_workers: n_honest,
        quorum: n_honest,
        steps: core.config().steps,
        join_deadline_ms: workloads::SIM_DEADLINE_MS,
        warmup_deadline_ms: workloads::SIM_DEADLINE_MS,
        step_deadline_ms: workloads::SIM_DEADLINE_MS,
        staleness_window: core.config().staleness_window,
    }
}

fn sim_net(core: &ServerCore, workers: Vec<HonestWorker>, seed: u64) -> SimNet {
    let plan = workloads::chaos_plan(workers.len());
    SimNet::new(
        workers,
        &plan,
        seed,
        workloads::SIM_COMPUTE_MS,
        workloads::SIM_RESUME_WINDOW,
        core.config().staleness_window,
    )
}

/// The experiment's trainer with every component wrapped in its timing
/// twin — the same components `Experiment::build_trainer` resolves, built
/// through the same registry calls.
fn traced_trainer(exp: &Experiment) -> Result<Trainer, String> {
    let n = exp.config.n_workers;
    let (model, sources, test): (Arc<dyn Model>, Vec<Box<dyn BatchSource>>, _) = match &exp.workload
    {
        Workload::Provided { train, test } => (
            Arc::new(LogisticRegression::new(
                train.num_features(),
                LossKind::SigmoidMse,
            )),
            (0..n)
                .map(|_| {
                    Box::new(DatasetSource::new(
                        train.clone(),
                        SamplingMode::WithReplacement,
                    )) as Box<dyn BatchSource>
                })
                .collect(),
            Some(test.clone()),
        ),
        Workload::MeanEstimation { dim, .. } => {
            let dist = exp
                .mean_estimation_instance()
                .ok_or("mean-estimation workload without an instance")?;
            (
                Arc::new(QuadraticMean::new(*dim)),
                (0..n)
                    .map(|_| Box::new(MeanEstimationSource(dist.clone())) as Box<dyn BatchSource>)
                    .collect(),
                None,
            )
        }
        Workload::PhishingLike { .. } => {
            return Err("the benchmark hands its data over as Workload::Provided".into())
        }
    };
    let budget = exp.budget.as_ref().ok_or("every workload runs with DP")?;
    let mut mechanism = exp.mechanism.clone();
    mechanism.default_param("epsilon", budget.epsilon());
    mechanism.default_param("delta", budget.delta());
    mechanism.default_param("g_max", exp.dp_reference_g_max.unwrap_or(exp.config.clip));
    mechanism.default_param("batch_size", exp.config.batch_size);
    mechanism.default_param("dim", model.dim());
    let mechanism = registry::build_mechanism(&mechanism).map_err(|e| e.to_string())?;
    let gar = registry::build_gar(&exp.gar).map_err(|e| e.to_string())?;
    let attack = exp.attack.as_ref().ok_or("every workload arms an attack")?;
    let attack = registry::build_attack(attack).map_err(|e| e.to_string())?;
    Ok(Trainer::new(
        exp.config.clone(),
        Arc::new(TimedModel(model)),
        sources
            .into_iter()
            .map(|s| Box::new(TimedSource(s)) as Box<dyn BatchSource>)
            .collect(),
        test,
    )
    .gar(Arc::new(TimedGar(gar)))
    .mechanism(Arc::new(TimedMechanism(mechanism)))
    .attack(Arc::new(TimedAttack(attack))))
}

/// One traced repetition. Sequential workloads drive the round loop from
/// here through `Trainer::into_distributed_parts`, timing each
/// `compute_into` and `process_round`; sim workloads time `drive` over a
/// timing transport.
pub fn run_traced(
    spec: &Spec,
    exp: &Experiment,
    seed: u64,
    scratch: &mut RunScratch,
    observer: Box<dyn RunObserver>,
) -> Result<(Outcome, Counts), String> {
    let trainer = traced_trainer(exp)?.observer(observer);
    let (mut core, mut workers) = trainer.into_distributed_parts(seed, scratch);
    match spec.engine {
        Engine::Sequential => {
            let mut outputs = scratch.take_outputs();
            outputs.resize_with(workers.len(), WorkerOutput::default);
            let mut params = Vector::zeros(core.params().dim());
            let steps = core.config().steps;
            let mut alloc_open = trace::allocs();
            for t in 1..=steps {
                if t == STEADY_FROM {
                    alloc_open = trace::allocs();
                }
                trace::timed(Span::Params, || params.copy_from(core.params()));
                let batch = core.config().batch_at(t);
                for (w, out) in workers.iter_mut().zip(outputs.iter_mut()) {
                    trace::timed(Span::Worker, || w.compute_into(&params, batch, out));
                }
                trace::timed(Span::Round, || core.process_round(t, &mut outputs))
                    .map_err(|e| e.to_string())?;
            }
            let counts = Counts {
                steady_allocs: trace::allocs() - alloc_open,
                steady_rounds: u64::from(steps.saturating_sub(STEADY_FROM - 1)),
                ..Counts::default()
            };
            scratch.restore_outputs(outputs);
            core.reclaim_scratch(scratch);
            let history = core.finish(seed);
            Ok((
                Outcome {
                    history,
                    virtual_ms: None,
                },
                counts,
            ))
        }
        Engine::Sim => {
            let cfg = machine_config(&core, workers.len());
            let net = sim_net(&core, std::mem::take(&mut workers), seed);
            let mut net = trace::TimedTransport::new(net, STEADY_FROM);
            let history = trace::timed(Span::Drive, || drive(&mut net, core, cfg, seed, scratch))
                .map_err(|e| e.to_string())?;
            let steps = u64::from(cfg.steps);
            let counts = Counts {
                steady_allocs: net.alloc_marks.1.saturating_sub(net.alloc_marks.0),
                steady_rounds: steps.saturating_sub(u64::from(STEADY_FROM) - 1),
                polls: net.polls,
                idles: net.idles,
                events: net.events,
            };
            Ok((
                Outcome {
                    history,
                    virtual_ms: Some(net.inner.now_ms()),
                },
                counts,
            ))
        }
    }
}
