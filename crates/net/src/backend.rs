//! The `"tcp"` execution backend: one coordinator, `n_honest` worker
//! sessions over localhost TCP, behind the same [`EngineBackend`] trait
//! as the in-process engines.
//!
//! [`install`] registers it; afterwards `exp.backend = "tcp".into()`
//! routes [`Experiment::run`] through real sockets. Worker sessions run
//! as in-process threads here (each speaking the full wire protocol);
//! the `coordinator`/`worker` binaries deploy the same loops as separate
//! OS processes.
//!
//! Spec parameters (all optional):
//!
//! * `min_workers` — joins required at the join deadline (default: all
//!   honest workers);
//! * `quorum` — reports required at a step deadline before stragglers
//!   are dropped (default: `max(min_workers, n_honest − f)`, the
//!   witness-style `n − f` budget);
//! * `join_timeout_ms` / `warmup_timeout_ms` / `step_timeout_ms` —
//!   phase deadlines (default 10 000 each).

use crate::coordinator::{CoordinatorConfig, CoordinatorError, TcpCoordinator};
use crate::worker::{run_worker, WorkerConfig};
use dpbyz_core::engine::register_backend;
use dpbyz_core::pipeline::{Experiment, PipelineError};
use dpbyz_core::{ComponentSpec, EngineBackend, RegistryError};
use dpbyz_server::{RunHistory, RunObserver, RunScratch};
use std::sync::Arc;
use std::time::Duration;

/// Resolves and validates the deployment shape shared by every
/// distributed deployment (the `"tcp"` and `"sim"` backends and the
/// `coordinator` binary): how many honest workers connect, the join
/// gate (default: all of them), and the per-round quorum (default:
/// `max(min_workers, n_honest − f)`). Returns `(n_honest, min_workers,
/// quorum)`. Misconfiguration surfaces as a [`PipelineError::Spec`]
/// prefixed with `label` instead of a hung join phase.
///
/// # Errors
///
/// [`PipelineError::Spec`] when `min_workers` or `quorum` exceeds the
/// workers that can ever connect.
pub fn resolve_deployment(
    label: &str,
    exp: &Experiment,
    min_workers: Option<usize>,
    quorum: Option<usize>,
) -> Result<(usize, usize, usize), PipelineError> {
    let n_workers = exp.config.n_workers;
    let n_honest = exp.config.honest_workers(exp.attack.is_some());
    let min_workers = min_workers.unwrap_or(n_honest);
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
    let quorum = quorum
        .unwrap_or_else(|| {
            n_honest
                .saturating_sub(exp.config.n_byzantine)
                .max(min_workers)
        })
        .max(1);
    if quorum > n_honest {
        return Err(PipelineError::Spec(format!(
            "{label}: quorum {quorum} exceeds the {n_honest} honest workers"
        )));
    }
    Ok((n_honest, min_workers, quorum))
}

/// The TCP deployment backend. Build via the registry (`"tcp"` after
/// [`install`]) or [`TcpBackend::from_spec`].
pub struct TcpBackend {
    min_workers: Option<usize>,
    quorum: Option<usize>,
    join_timeout: Duration,
    warmup_timeout: Duration,
    step_timeout: Duration,
}

impl TcpBackend {
    /// Reads deployment knobs from a backend spec (see the module docs
    /// for the parameter list).
    ///
    /// # Errors
    ///
    /// [`RegistryError::Build`] when a knob is present but not an
    /// unsigned integer.
    pub fn from_spec(spec: &ComponentSpec) -> Result<Self, RegistryError> {
        let ms = |key: &str| spec.u64_or_reject(key, 10_000).map(Duration::from_millis);
        Ok(TcpBackend {
            min_workers: spec.u64_if_present("min_workers")?.map(|v| v as usize),
            quorum: spec.u64_if_present("quorum")?.map(|v| v as usize),
            join_timeout: ms("join_timeout_ms")?,
            warmup_timeout: ms("warmup_timeout_ms")?,
            step_timeout: ms("step_timeout_ms")?,
        })
    }
}

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
        let (n_honest, min_workers, quorum) =
            resolve_deployment("tcp backend", exp, self.min_workers, self.quorum)?;

        let mut trainer = exp.build_trainer()?;
        if let Some(observer) = observer {
            trainer = trainer.observer(observer);
        }
        let (core, workers) = trainer.into_distributed_parts(seed, scratch);

        let coordinator = TcpCoordinator::bind(
            "127.0.0.1:0",
            CoordinatorConfig {
                min_workers,
                quorum,
                join_timeout: self.join_timeout,
                warmup_timeout: self.warmup_timeout,
                step_timeout: self.step_timeout,
                ..CoordinatorConfig::default()
            },
        )
        .map_err(|e| PipelineError::Spec(format!("tcp backend: bind failed: {e}")))?;
        let addr = coordinator
            .local_addr()
            .map_err(|e| PipelineError::Spec(format!("tcp backend: local_addr failed: {e}")))?;

        // One session thread per honest worker — same wire protocol and
        // config the standalone `worker` binary uses, so a lost socket
        // resumes via REJOIN instead of failing the run.
        let handles: Vec<_> = workers
            .into_iter()
            .map(|w| {
                let cfg = WorkerConfig::for_run(seed, w.id());
                std::thread::spawn(move || run_worker(addr, w, cfg))
            })
            .collect();

        let result = coordinator.run(core, n_honest, seed, scratch);
        for handle in handles {
            // Worker-side errors are subsumed by the coordinator's own
            // (abort/timeout) diagnosis; a panic is a bug worth surfacing.
            let _ = handle.join().expect("worker session thread panicked"); // lint:allow(panic-unwrap, reason = "a join error means the worker session thread panicked; propagating is the designed response")
        }
        result.map_err(|e| match e {
            CoordinatorError::Gar(g) => PipelineError::Gar(g),
            other => PipelineError::Spec(format!("tcp backend: {other}")),
        })
    }
}

/// Registers the `"tcp"` backend. Idempotent — safe to call from every
/// binary and test that might race another `install`.
pub fn install() {
    match register_backend("tcp", |spec| {
        Ok(Arc::new(TcpBackend::from_spec(spec)?) as Arc<dyn EngineBackend>)
    }) {
        Ok(()) | Err(RegistryError::DuplicateId(_)) => {}
        Err(e) => unreachable!("tcp backend registration failed: {e}"),
    }
}
