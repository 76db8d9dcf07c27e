//! A serializable job description — how a worker *process* learns what to
//! train.
//!
//! The coordinator binary serializes its [`Experiment`] into a
//! [`JobSpec`] (JSON via the component registry's string ids) and hands
//! it to each worker process on the command line; the worker rebuilds the
//! experiment, materializes it through the same
//! [`Experiment::build_trainer`] path every engine shares, and extracts
//! its own [`HonestWorker`] with
//! [`Trainer::into_worker`](dpbyz_server::Trainer::into_worker). Because
//! both sides reconstruct from the same spec and seed, the RNG streams
//! and data generation agree bit for bit with an in-process run.
//!
//! Only *generatable* workloads can ship: a [`Workload::Provided`]
//! dataset lives in the parent's memory and has no registry id, so
//! [`JobSpec::from_experiment`] rejects it with a
//! [`PipelineError::Spec`].

use dpbyz_core::pipeline::{Experiment, PipelineError, Workload};
use dpbyz_core::ComponentSpec;
use dpbyz_dp::PrivacyBudget;
use dpbyz_server::{HonestWorker, TrainingConfig};
use serde::{Deserialize, Serialize};

/// The registry-representable subset of [`Workload`]: everything a worker
/// process can regenerate from seeds alone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// [`Workload::PhishingLike`].
    PhishingLike {
        /// Dataset-generator seed.
        data_seed: u64,
        /// Total example count.
        size: usize,
    },
    /// [`Workload::MeanEstimation`].
    MeanEstimation {
        /// Dimension `d`.
        dim: usize,
        /// Sampling std σ.
        sigma: f64,
        /// Seed generating `x̄`.
        data_seed: u64,
    },
}

/// One distributed training job, complete and self-contained: ship it to
/// any process and both sides rebuild identical components.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// What to train on.
    pub workload: WorkloadSpec,
    /// Topology and hyper-parameters.
    pub config: TrainingConfig,
    /// Aggregation rule (registry id).
    pub gar: ComponentSpec,
    /// Attack armed at the coordinator (`None` ⇒ all honest). Workers
    /// ignore it beyond topology: forgeries are server-side.
    pub attack: Option<ComponentSpec>,
    /// Per-step privacy budget.
    pub budget: Option<PrivacyBudget>,
    /// Noise mechanism (registry id).
    pub mechanism: ComponentSpec,
    /// DP calibration reference (see
    /// [`Experiment::dp_reference_g_max`]).
    pub dp_reference_g_max: Option<f64>,
    /// The run seed — the root of every derived RNG stream.
    pub seed: u64,
}

impl JobSpec {
    /// Captures an experiment plus its run seed.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Spec`] for a [`Workload::Provided`] experiment
    /// (in-memory datasets cannot be shipped to another process).
    pub fn from_experiment(exp: &Experiment, seed: u64) -> Result<Self, PipelineError> {
        let workload = match &exp.workload {
            Workload::PhishingLike { data_seed, size } => WorkloadSpec::PhishingLike {
                data_seed: *data_seed,
                size: *size,
            },
            Workload::MeanEstimation {
                dim,
                sigma,
                data_seed,
            } => WorkloadSpec::MeanEstimation {
                dim: *dim,
                sigma: *sigma,
                data_seed: *data_seed,
            },
            Workload::Provided { .. } => {
                return Err(PipelineError::Spec(
                    "a Provided workload holds in-memory datasets and cannot be \
                     serialized for worker processes; use a generatable workload \
                     (phishing-like or mean-estimation)"
                        .into(),
                ))
            }
        };
        Ok(JobSpec {
            workload,
            config: exp.config.clone(),
            gar: exp.gar.clone(),
            attack: exp.attack.clone(),
            budget: exp.budget,
            mechanism: exp.mechanism.clone(),
            dp_reference_g_max: exp.dp_reference_g_max,
            seed,
        })
    }

    /// Rebuilds the experiment; worker processes only materialize its
    /// components through [`Experiment::build_trainer`].
    pub fn to_experiment(&self) -> Experiment {
        let workload = match &self.workload {
            WorkloadSpec::PhishingLike { data_seed, size } => Workload::PhishingLike {
                data_seed: *data_seed,
                size: *size,
            },
            WorkloadSpec::MeanEstimation {
                dim,
                sigma,
                data_seed,
            } => Workload::MeanEstimation {
                dim: *dim,
                sigma: *sigma,
                data_seed: *data_seed,
            },
        };
        Experiment {
            workload,
            config: self.config.clone(),
            gar: self.gar.clone(),
            attack: self.attack.clone(),
            budget: self.budget,
            mechanism: self.mechanism.clone(),
            dp_reference_g_max: self.dp_reference_g_max,
        }
    }

    /// Serializes to JSON.
    ///
    /// # Errors
    ///
    /// Serialization failures (infallible for this shape in practice).
    pub fn to_json(&self) -> Result<String, PipelineError> {
        serde_json::to_string(self).map_err(|e| PipelineError::Spec(format!("job spec: {e}")))
    }

    /// Parses from JSON.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Spec`] on malformed or shape-mismatched input.
    pub fn from_json(text: &str) -> Result<Self, PipelineError> {
        serde_json::from_str(text).map_err(|e| PipelineError::Spec(format!("job spec: {e}")))
    }

    /// Materializes the honest worker a worker process at `index` hosts:
    /// same components, same RNG stream as its in-process twin.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Spec`] when `index` is not an honest worker slot;
    /// component-resolution errors as [`Experiment::build_trainer`].
    pub fn worker(&self, index: usize) -> Result<HonestWorker, PipelineError> {
        let trainer = self.to_experiment().build_trainer()?;
        trainer.into_worker(self.seed, index).ok_or_else(|| {
            PipelineError::Spec(format!(
                "worker index {index} is not an honest slot (honest workers are 0..{})",
                self.config.honest_workers(self.attack.is_some())
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn experiment() -> Experiment {
        Experiment::builder()
            .batch_size(10)
            .epsilon(0.2)
            .attack("alie")
            .steps(5)
            .dataset_size(300)
            .build()
            .unwrap()
    }

    #[test]
    fn json_roundtrip_preserves_the_job() {
        let spec = JobSpec::from_experiment(&experiment(), 42).unwrap();
        let json = spec.to_json().unwrap();
        let back = JobSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.seed, 42);
        assert_eq!(back.gar.id, "mda");
    }

    #[test]
    fn provided_workloads_are_rejected() {
        let mut exp = experiment();
        let mut rng = dpbyz_tensor::Prng::seed_from_u64(1);
        let ds = std::sync::Arc::new(dpbyz_data::synthetic::phishing_like(&mut rng, 100));
        exp.workload = Workload::Provided {
            train: ds.clone(),
            test: ds,
        };
        match JobSpec::from_experiment(&exp, 1) {
            Err(PipelineError::Spec(msg)) => assert!(msg.contains("Provided"), "{msg}"),
            other => panic!("expected Spec error, got {other:?}"),
        }
    }

    #[test]
    fn worker_materializes_only_honest_slots() {
        let spec = JobSpec::from_experiment(&experiment(), 7).unwrap();
        // n = 11, f = 5 ⇒ honest slots 0..6.
        assert!(spec.worker(0).is_ok());
        assert!(spec.worker(5).is_ok());
        match spec.worker(6) {
            Err(PipelineError::Spec(msg)) => assert!(msg.contains("0..6"), "{msg}"),
            Err(other) => panic!("expected Spec error, got {other:?}"),
            Ok(_) => panic!("index 6 is a Byzantine slot and must not materialize"),
        }
    }

    #[test]
    fn worker_matches_in_process_twin() {
        // The spec-materialized worker and the in-process engine's worker
        // must be on identical RNG streams: their first computed outputs
        // agree bit for bit.
        let exp = experiment();
        let seed = 3;
        let spec = JobSpec::from_experiment(&exp, seed).unwrap();
        let mut from_spec = spec.worker(2).unwrap();

        let trainer = exp.build_trainer().unwrap();
        let mut scratch = dpbyz_server::RunScratch::new();
        let (core, mut workers) = trainer.into_distributed_parts(seed, &mut scratch);
        let mut twin = workers.swap_remove(2);
        let params = core.params().clone();

        let a = from_spec.compute(&params, 10);
        let b = twin.compute(&params, 10);
        assert_eq!(a, b);
    }
}
