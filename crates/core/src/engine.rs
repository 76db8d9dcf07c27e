//! Execution-engine backends behind one registry of string ids.
//!
//! Every way of *running* an [`Experiment`] — the sequential zero-copy
//! engine, the threaded engine, and out-of-process deployments like the
//! TCP coordinator — implements [`EngineBackend`] and registers under a
//! string id, exactly the registry idiom GARs, attacks, and mechanisms
//! use. The experiment stores a backend [`ComponentSpec`]; `run` resolves
//! it at execution time, so backends registered by downstream crates
//! (the `dpbyz-net` crate's `"tcp"`) participate with no changes here.
//!
//! Built-ins:
//!
//! * `"sequential"` — [`Trainer`](dpbyz_server::Trainer), the golden
//!   zero-copy reference engine;
//! * `"threaded"` — [`ThreadedTrainer`], the same round loop with each
//!   honest worker's local step on its own pooled OS thread.
//!
//! Every backend must reproduce the reference engine's histories **bit
//! for bit** on a clean run — that contract is what lets the pipeline
//! treat backend selection as an execution detail rather than a modeling
//! choice.

use crate::pipeline::{Experiment, PipelineError};
use crate::registry::{ComponentSpec, Registry, RegistryError};
use dpbyz_server::{RunHistory, RunObserver, RunScratch, ThreadedTrainer};
use std::sync::{Arc, OnceLock, RwLock};

/// An execution engine: turns an [`Experiment`] plus a seed into a
/// [`RunHistory`].
///
/// Implementations must be **bit-faithful**: on a clean run (no injected
/// faults beyond what the experiment itself configures) the produced
/// history must equal the sequential reference engine's exactly — same
/// RNG-stream derivation, same arithmetic, same float bit patterns. The
/// golden-history tests pin this for the in-process engines; the
/// distributed digest tests pin it across process boundaries.
pub trait EngineBackend: Send + Sync {
    /// The backend's registered id (for diagnostics).
    fn name(&self) -> &str;

    /// Executes one run of the experiment.
    ///
    /// `observer` streams per-step metrics (observation must stay
    /// passive); `scratch` recycles buffers across consecutive runs.
    ///
    /// # Errors
    ///
    /// Anything the underlying engine surfaces — aggregation errors,
    /// spec errors, transport failures — mapped into [`PipelineError`].
    fn run(
        &self,
        exp: &Experiment,
        seed: u64,
        observer: Option<Box<dyn RunObserver>>,
        scratch: &mut RunScratch,
    ) -> Result<RunHistory, PipelineError>;
}

/// The sequential reference engine (`"sequential"`).
struct SequentialBackend;

impl EngineBackend for SequentialBackend {
    fn name(&self) -> &str {
        "sequential"
    }

    fn run(
        &self,
        exp: &Experiment,
        seed: u64,
        observer: Option<Box<dyn RunObserver>>,
        scratch: &mut RunScratch,
    ) -> Result<RunHistory, PipelineError> {
        let mut trainer = exp.build_trainer()?;
        if let Some(observer) = observer {
            trainer = trainer.observer(observer);
        }
        Ok(trainer.run_with_scratch(seed, scratch)?)
    }
}

/// The threaded in-process engine (`"threaded"`).
struct ThreadedBackend;

impl EngineBackend for ThreadedBackend {
    fn name(&self) -> &str {
        "threaded"
    }

    fn run(
        &self,
        exp: &Experiment,
        seed: u64,
        observer: Option<Box<dyn RunObserver>>,
        scratch: &mut RunScratch,
    ) -> Result<RunHistory, PipelineError> {
        let mut trainer = exp.build_trainer()?;
        if let Some(observer) = observer {
            trainer = trainer.observer(observer);
        }
        Ok(ThreadedTrainer::from(trainer).run_with_scratch(seed, scratch)?)
    }
}

fn built_in_backends() -> Registry<dyn EngineBackend> {
    let mut r = Registry::new();
    r.seed("sequential", |_| {
        Ok(Arc::new(SequentialBackend) as Arc<dyn EngineBackend>)
    });
    r.seed("threaded", |_| {
        Ok(Arc::new(ThreadedBackend) as Arc<dyn EngineBackend>)
    });
    r
}

fn backend_registry() -> &'static RwLock<Registry<dyn EngineBackend>> {
    static REGISTRY: OnceLock<RwLock<Registry<dyn EngineBackend>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(built_in_backends()))
}

/// Registers an execution backend under a new id.
///
/// # Errors
///
/// [`RegistryError::DuplicateId`] if the id is taken.
///
/// # Panics
///
/// Panics if the registry lock is poisoned.
pub fn register_backend(
    id: impl Into<String>,
    factory: impl Fn(&ComponentSpec) -> Result<Arc<dyn EngineBackend>, RegistryError>
        + Send
        + Sync
        + 'static,
) -> Result<(), RegistryError> {
    crate::registry::write_guard(backend_registry()).register(id, factory)
}

/// Builds a backend from its spec.
///
/// # Errors
///
/// [`RegistryError::UnknownId`] naming the available backends if the id
/// is not registered; the factory's own error otherwise.
///
/// # Panics
///
/// Panics if the registry lock is poisoned.
pub fn build_backend(spec: &ComponentSpec) -> Result<Arc<dyn EngineBackend>, RegistryError> {
    let factory = crate::registry::read_guard(backend_registry()).factory(&spec.id)?;
    factory(spec)
}

/// Registered backend ids, sorted.
///
/// # Panics
///
/// Panics if the registry lock is poisoned.
pub fn backend_ids() -> Vec<String> {
    crate::registry::read_guard(backend_registry()).ids()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_ins_present() {
        let ids = backend_ids();
        assert!(ids.contains(&"sequential".to_string()));
        assert!(ids.contains(&"threaded".to_string()));
    }

    #[test]
    fn unknown_backend_names_available() {
        let err = match build_backend(&ComponentSpec::new("carrier-pigeon")) {
            Ok(_) => panic!("unregistered id built"),
            Err(e) => e,
        };
        match err {
            RegistryError::UnknownId { id, available } => {
                assert_eq!(id, "carrier-pigeon");
                assert!(available.contains(&"sequential".to_string()));
            }
            other => panic!("expected UnknownId, got {other}"),
        }
    }

    #[test]
    fn backends_are_buildable_and_named() {
        for id in ["sequential", "threaded"] {
            let backend = build_backend(&ComponentSpec::new(id)).unwrap();
            assert_eq!(backend.name(), id);
        }
    }
}
