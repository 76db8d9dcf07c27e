//! The [`Deployment`] every distributed run shares, and the TCP
//! execution backend.
//!
//! A deployment is the shape of one coordinated run: the join gate, the
//! per-round quorum, the phase deadlines and the rejoin replay window.
//! [`TcpBackend`], [`SimBackend`](crate::sim::SimBackend) and the
//! `coordinator` binary each hold one and turn it into the round
//! machine's [`MachineConfig`] with [`Deployment::resolve`], which
//! refuses a join gate or quorum that no run could reach.
//!
//! `TcpBackend::default().run(&exp, seed, None, &mut scratch)` routes
//! an [`Experiment`] through real localhost sockets. Worker sessions run
//! as in-process threads here (each speaking the full wire protocol);
//! the `coordinator`/`worker` binaries deploy the same loops as separate
//! OS processes.

use crate::coordinator::TcpCoordinator;
use crate::machine::MachineConfig;
use crate::transport::CoordinatorError;
use crate::worker::run_worker;
use dpbyz_core::pipeline::{Experiment, PipelineError};
use dpbyz_server::{HonestWorker, RunHistory, RunObserver, RunScratch, ServerCore, TrainingConfig};

/// The shape of one distributed run. `Default` holds the one default of
/// every knob: every honest worker joins and reports, 10 s deadlines
/// (virtual ms on the sim) and a 32-frame replay window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deployment {
    /// Joins required at the join deadline (and readies at the warmup
    /// deadline); below this the run aborts. `None`: every honest worker.
    pub min_workers: Option<usize>,
    /// Reports required at a step deadline; at or above this the round
    /// advances and the stragglers are dropped (their submissions
    /// zeroed), below it the run aborts. `None`:
    /// `max(min_workers, n_honest − f)`.
    pub quorum: Option<usize>,
    /// Join-phase deadline, ms.
    pub join_timeout_ms: u64,
    /// Warmup-phase deadline, ms.
    pub warmup_timeout_ms: u64,
    /// Per-step deadline, ms from the step broadcast.
    pub step_timeout_ms: u64,
    /// Broadcast frames the [`ResumeRing`](crate::transport::ResumeRing)
    /// retains for `REJOIN` replay: a worker more than this many rounds
    /// behind cannot resume (it stays detached, zeroed every round).
    pub resume_window: usize,
}

impl Default for Deployment {
    fn default() -> Self {
        Deployment {
            min_workers: None,
            quorum: None,
            join_timeout_ms: 10_000,
            warmup_timeout_ms: 10_000,
            step_timeout_ms: 10_000,
            resume_window: 32,
        }
    }
}

impl Deployment {
    /// Resolves this deployment for a run of `config` into the round
    /// machine's configuration: the honest workers that connect
    /// ([`TrainingConfig::honest_workers`]), the join gate (default: all
    /// of them) and the per-round quorum (default:
    /// `max(min_workers, n_honest − f)`, at least 1). Misconfiguration
    /// surfaces as a [`PipelineError::Spec`] prefixed with `label`
    /// instead of a hung join phase.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Spec`] when `min_workers` or `quorum` exceeds the
    /// workers that can ever connect.
    pub fn resolve(
        &self,
        label: &str,
        config: &TrainingConfig,
        attack_armed: bool,
    ) -> Result<MachineConfig, PipelineError> {
        let n_workers = config.n_workers;
        let n_honest = config.honest_workers(attack_armed);
        let min_workers = self.min_workers.unwrap_or(n_honest);
        if min_workers > n_workers {
            return Err(PipelineError::Spec(format!(
                "{label}: min_workers {min_workers} exceeds n_workers {n_workers} \
                 — the join gate could never open"
            )));
        }
        if min_workers > n_honest {
            return Err(PipelineError::Spec(format!(
                "{label}: min_workers {min_workers} exceeds the {n_honest} honest \
                 workers; Byzantine colluders are simulated server-side and never \
                 join, so at most {n_honest} processes ever connect"
            )));
        }
        let quorum = self
            .quorum
            .unwrap_or_else(|| n_honest.saturating_sub(config.n_byzantine).max(min_workers))
            .max(1);
        if quorum > n_honest {
            return Err(PipelineError::Spec(format!(
                "{label}: quorum {quorum} exceeds the {n_honest} honest workers"
            )));
        }
        Ok(MachineConfig {
            n_workers: n_honest,
            min_workers,
            quorum,
            steps: config.steps,
            join_deadline_ms: self.join_timeout_ms,
            warmup_deadline_ms: self.warmup_timeout_ms,
            step_deadline_ms: self.step_timeout_ms,
            staleness_window: config.staleness_window,
        })
    }

    /// The steps every distributed backend shares: resolve under
    /// `label`, build the trainer (with `observer`), split it into the
    /// server core and the honest workers, hand both and the resolved
    /// machine config to `transport`, and lift its error into a
    /// [`PipelineError`].
    pub(crate) fn run(
        &self,
        label: &str,
        exp: &Experiment,
        seed: u64,
        observer: Option<Box<dyn RunObserver>>,
        scratch: &mut RunScratch,
        transport: impl FnOnce(
            ServerCore,
            Vec<HonestWorker>,
            MachineConfig,
            &mut RunScratch,
        ) -> Result<RunHistory, CoordinatorError>,
    ) -> Result<RunHistory, PipelineError> {
        let machine = self.resolve(label, &exp.config, exp.attack.is_some())?;
        let mut trainer = exp.build_trainer()?;
        if let Some(observer) = observer {
            trainer = trainer.observer(observer);
        }
        let (core, workers) = trainer.into_distributed_parts(seed, scratch);
        transport(core, workers, machine, scratch).map_err(|e| match e {
            CoordinatorError::Gar(g) => PipelineError::Gar(g),
            other => PipelineError::Spec(format!("{label}: {other}")),
        })
    }
}

/// The TCP deployment backend: its [`Deployment`] over localhost
/// sockets.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpBackend(pub Deployment);

impl TcpBackend {
    /// Runs one experiment over localhost TCP: a coordinator and one
    /// worker session thread per honest worker. On a clean run the
    /// history equals [`Experiment::run`]'s bit for bit. `observer`
    /// streams per-step metrics; `scratch` recycles the server's buffers
    /// across runs.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Spec`] for a deployment [`Deployment::resolve`]
    /// refuses or a failed run (socket errors, an aborted round);
    /// [`PipelineError::Gar`] when aggregation fails; component errors as
    /// [`Experiment::build_trainer`].
    pub fn run(
        &self,
        exp: &Experiment,
        seed: u64,
        observer: Option<Box<dyn RunObserver>>,
        scratch: &mut RunScratch,
    ) -> Result<RunHistory, PipelineError> {
        let d = &self.0;
        d.run(
            "tcp backend",
            exp,
            seed,
            observer,
            scratch,
            |core, workers, cfg, scratch| {
                let coordinator = TcpCoordinator::bind("127.0.0.1:0")?;
                let addr = coordinator.local_addr()?;
                // One session thread per honest worker — the same session
                // loop the standalone `worker` binary runs, so a lost
                // socket resumes via REJOIN instead of failing the run.
                let handles: Vec<_> = workers
                    .into_iter()
                    .map(|w| std::thread::spawn(move || run_worker(addr, w, seed, false)))
                    .collect();
                let result = coordinator.run(core, cfg, d.resume_window, seed, scratch);
                for handle in handles {
                    // Worker-side errors are subsumed by the coordinator's own
                    // (abort/timeout) diagnosis; a panic is a bug worth surfacing.
                    // lint:allow(panic-unwrap, reason = "a join error means the worker session thread panicked; propagating is the designed response")
                    let _ = handle.join().expect("worker session thread panicked");
                }
                result
            },
        )
    }
}
