//! The [`Deployment`] every distributed run shares, and the `"tcp"`
//! execution backend.
//!
//! A deployment is the shape of one coordinated run: the join gate, the
//! per-round quorum, the phase deadlines and the rejoin replay window.
//! The `"tcp"` and `"sim"` backends and the `coordinator` binary all
//! read it with [`Deployment::from_spec`] and turn it into the round
//! machine's [`MachineConfig`] with [`Deployment::resolve`].
//!
//! Spec parameters (all optional unsigned integers; a key not listed
//! here is refused):
//!
//! * `min_workers` — joins required at the join deadline (default: all
//!   honest workers);
//! * `quorum` — reports required at a step deadline before stragglers
//!   are dropped (default: `max(min_workers, n_honest − f)`, the
//!   witness-style `n − f` budget);
//! * `join_timeout_ms` / `warmup_timeout_ms` / `step_timeout_ms` —
//!   phase deadlines, in virtual ms on the sim (default 10 000 each);
//! * `resume_window` — broadcast frames retained for rejoin replay
//!   (default 32).
//!
//! The `"sim"` backend also reads `chaos` and `compute_ms` (see
//! [`SimBackend`](crate::sim::SimBackend)).
//!
//! [`install`](crate::install) registers the `"tcp"` backend; afterwards
//! `exp.backend = "tcp".into()` routes [`Experiment::run`] through real
//! sockets. Worker sessions run as in-process threads here (each
//! speaking the full wire protocol); the `coordinator`/`worker` binaries
//! deploy the same loops as separate OS processes.

use crate::coordinator::TcpCoordinator;
use crate::machine::MachineConfig;
use crate::transport::CoordinatorError;
use crate::worker::run_worker;
use dpbyz_core::pipeline::{Experiment, PipelineError};
use dpbyz_core::{ComponentSpec, EngineBackend, RegistryError};
use dpbyz_server::{HonestWorker, RunHistory, RunObserver, RunScratch, ServerCore, TrainingConfig};

/// The shape of one distributed run (spec keys in the module docs).
/// `Default` holds the one default of every knob.
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
    /// Reads a deployment from a backend spec; an absent key takes its
    /// [`Default`]. `extra` names the keys the calling backend reads
    /// itself.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Build`] when a key is present but not an
    /// unsigned integer, or is neither a deployment key nor in `extra`.
    pub fn from_spec(spec: &ComponentSpec, extra: &[&str]) -> Result<Self, RegistryError> {
        let mut known = extra.to_vec();
        let mut read = |key| {
            known.push(key);
            spec.u64_if_present(key)
        };
        let d = Deployment::default();
        let deployment = Deployment {
            min_workers: read("min_workers")?.map(|v| v as usize),
            quorum: read("quorum")?.map(|v| v as usize),
            join_timeout_ms: read("join_timeout_ms")?.unwrap_or(d.join_timeout_ms),
            warmup_timeout_ms: read("warmup_timeout_ms")?.unwrap_or(d.warmup_timeout_ms),
            step_timeout_ms: read("step_timeout_ms")?.unwrap_or(d.step_timeout_ms),
            resume_window: read("resume_window")?.map_or(d.resume_window, |v| v as usize),
        };
        let unknown = spec
            .params
            .keys()
            .find(|key| !known.contains(&key.as_str()));
        match unknown {
            None => Ok(deployment),
            Some(key) => Err(RegistryError::Build {
                id: spec.id.clone(),
                message: format!(
                    "unknown parameter `{key}`; expected one of {}",
                    known.join(", ")
                ),
            }),
        }
    }

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
/// sockets. Build via the registry (`"tcp"` after
/// [`install`](crate::install)).
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpBackend(pub Deployment);

impl EngineBackend for TcpBackend {
    fn name(&self) -> &str {
        "tcp"
    }

    fn run(
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
