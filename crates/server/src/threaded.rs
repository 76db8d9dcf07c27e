//! The multi-threaded training engine: each honest worker computes on
//! its own persistent OS thread.
//!
//! Histories are **bit-identical** to [`Trainer`]'s: both engines run one
//! round loop, which collects the outputs in worker-id order whatever
//! the thread scheduling. Each round it leases every worker's
//! [`WorkerLease`] to its thread of the scratch's
//! [`LeasePool`](dpbyz_tensor::LeasePool) and reclaims them in order.
//! Threads and packets live in the [`RunScratch`], so consecutive runs
//! reuse them and a steady-state round allocates **nothing**
//! (`tests/tests/alloc_steady_state.rs`). A run's workers leave their
//! packets at run end, releasing the run's dataset and model.

use crate::metrics::RunHistory;
use crate::trainer::{RunScratch, Trainer};
use crate::worker::{HonestWorker, WorkerOutput};
use dpbyz_gars::GarError;
use dpbyz_tensor::{Lease, Vector};

/// One worker's round on a pool thread: the worker (loaded for one run),
/// the broadcast parameters and batch size, and the output it fills.
#[derive(Default)]
pub(crate) struct WorkerLease {
    pub(crate) worker: Option<HonestWorker>,
    pub(crate) params: Vector,
    pub(crate) batch_size: usize,
    pub(crate) out: WorkerOutput,
}

impl Lease for WorkerLease {
    fn run(&mut self) {
        if let Some(worker) = &mut self.worker {
            worker.compute_into(&self.params, self.batch_size, &mut self.out);
        }
    }
}

/// Multi-threaded engine wrapping a [`Trainer`] specification.
///
/// # Example
///
/// See the crate-level example — replace `Trainer::run` with
/// `ThreadedTrainer::from(trainer).run(seed)` for the same result.
pub struct ThreadedTrainer {
    inner: Trainer,
}

impl From<Trainer> for ThreadedTrainer {
    fn from(inner: Trainer) -> Self {
        ThreadedTrainer { inner }
    }
}

impl ThreadedTrainer {
    /// Runs the full training on one thread per honest worker.
    ///
    /// # Errors
    ///
    /// Same as [`Trainer::run`].
    ///
    /// # Panics
    ///
    /// Panics if a worker's computation panics on its thread.
    pub fn run(self, seed: u64) -> Result<RunHistory, GarError> {
        self.run_with_scratch(seed, &mut RunScratch::new())
    }

    /// Runs the full training, recycling the buffers in `scratch` (round
    /// buffers, output slots, worker packets) **and** the scratch's
    /// persistent worker threads — consecutive runs on one scratch reuse
    /// parked OS threads instead of respawning them. The history is
    /// bit-identical to [`ThreadedTrainer::run`]'s regardless of what a
    /// previous run left in the scratch.
    ///
    /// # Errors
    ///
    /// Same as [`Trainer::run`].
    ///
    /// # Panics
    ///
    /// As [`ThreadedTrainer::run`].
    pub fn run_with_scratch(
        self,
        seed: u64,
        scratch: &mut RunScratch,
    ) -> Result<RunHistory, GarError> {
        self.inner.run_rounds(seed, scratch, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainingConfig;
    use dpbyz_attacks::FallOfEmpires;
    use dpbyz_data::sampler::{BatchSource, DatasetSource, SamplingMode};
    use dpbyz_data::synthetic;
    use dpbyz_dp::GaussianMechanism;
    use dpbyz_gars::Mda;
    use dpbyz_models::{LogisticRegression, LossKind};
    use dpbyz_tensor::Prng;
    use std::sync::Arc;

    fn build(n: usize, f: usize, steps: u32) -> (Trainer, Trainer) {
        let mut rng = Prng::seed_from_u64(11);
        let ds = Arc::new(synthetic::phishing_like(&mut rng, 500));
        let (train, test) = ds.split(0.8, &mut rng).unwrap();
        let (train, test) = (Arc::new(train), Arc::new(test));
        let model = Arc::new(LogisticRegression::new(68, LossKind::SigmoidMse));
        let config = TrainingConfig::builder()
            .workers(n, f)
            .batch_size(10)
            .steps(steps)
            .eval_every(5)
            .build()
            .unwrap();
        let mk = |cfg: &TrainingConfig| {
            let sources: Vec<Box<dyn BatchSource>> = (0..n)
                .map(|_| {
                    Box::new(DatasetSource::new(
                        train.clone(),
                        SamplingMode::WithReplacement,
                    )) as Box<dyn BatchSource>
                })
                .collect();
            Trainer::new(cfg.clone(), model.clone(), sources, Some(test.clone()))
        };
        (mk(&config), mk(&config))
    }

    #[test]
    fn threaded_matches_sequential_honest() {
        let (seq, thr) = build(4, 0, 25);
        let a = seq.run(3).unwrap();
        let b = ThreadedTrainer::from(thr).run(3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn threaded_matches_sequential_under_attack_and_noise() {
        let (seq, thr) = build(11, 5, 15);
        let mech = Arc::new(GaussianMechanism::with_sigma(0.01).unwrap());
        let seq = seq
            .gar(Arc::new(Mda::new()))
            .mechanism(mech.clone())
            .attack(Arc::new(FallOfEmpires::default()));
        let thr = thr
            .gar(Arc::new(Mda::new()))
            .mechanism(mech)
            .attack(Arc::new(FallOfEmpires::default()));
        let a = seq.run(5).unwrap();
        let b = ThreadedTrainer::from(thr).run(5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn threaded_surfaces_aggregation_errors() {
        let (_, thr) = build(5, 1, 10);
        let res = ThreadedTrainer::from(thr.attack(Arc::new(FallOfEmpires::default()))).run(1);
        assert!(matches!(res, Err(GarError::TooManyByzantine { .. })));
    }

    #[test]
    fn pool_threads_persist_across_runs() {
        // Two consecutive runs on one scratch must not respawn threads:
        // the pool's size is the high-water mark of worker counts, and
        // histories stay bit-identical to fresh-pool runs.
        let mut scratch = RunScratch::new();
        let (_, a) = build(4, 0, 10);
        let first = ThreadedTrainer::from(a)
            .run_with_scratch(3, &mut scratch)
            .unwrap();
        assert_eq!(scratch.pool.len(), 4);
        let spawned: Vec<_> = scratch.pool.threads().map(|t| t.id()).collect();
        let (_, b) = build(4, 0, 10);
        let second = ThreadedTrainer::from(b)
            .run_with_scratch(3, &mut scratch)
            .unwrap();
        assert_eq!(first, second);
        let reused: Vec<_> = scratch.pool.threads().map(|t| t.id()).collect();
        assert_eq!(spawned, reused, "threads were respawned between runs");
    }

    #[test]
    fn dirty_scratch_reuse_is_bit_invisible_across_topologies() {
        // One scratch reused across a 4-worker honest run, an 11-worker
        // attacked run, and back — the sweep-executor usage pattern. Every
        // history must equal its fresh-scratch counterpart exactly.
        let mut scratch = RunScratch::new();
        let (_, a) = build(4, 0, 12);
        let (_, b) = build(11, 5, 8);
        let fresh_a = {
            let (_, t) = build(4, 0, 12);
            ThreadedTrainer::from(t).run(3).unwrap()
        };
        let fresh_b = {
            let (_, t) = build(11, 5, 8);
            ThreadedTrainer::from(
                t.gar(Arc::new(Mda::new()))
                    .attack(Arc::new(FallOfEmpires::default())),
            )
            .run(4)
            .unwrap()
        };
        let first = ThreadedTrainer::from(a)
            .run_with_scratch(3, &mut scratch)
            .unwrap();
        assert_eq!(first, fresh_a);
        let second = ThreadedTrainer::from(
            b.gar(Arc::new(Mda::new()))
                .attack(Arc::new(FallOfEmpires::default())),
        )
        .run_with_scratch(4, &mut scratch)
        .unwrap();
        assert_eq!(second, fresh_b);
        let third = {
            let (_, t) = build(4, 0, 12);
            ThreadedTrainer::from(t)
                .run_with_scratch(3, &mut scratch)
                .unwrap()
        };
        assert_eq!(third, fresh_a);
    }
}
