//! Parameter-server distributed SGD simulator.
//!
//! Implements the system model of the paper's Fig. 1(b): `n` workers — up to
//! `f` of them Byzantine and colluding — send gradients each synchronous
//! step to an *honest-but-curious* parameter server, which aggregates them
//! with a GAR and updates the model (Eq. 9). Honest workers clip their
//! stochastic gradients and pass them through a local DP randomizer before
//! submission (Eq. 7).
//!
//! One in-process engine, [`Trainer`], runs the round loop. It is
//! zero-copy: the round hot path (worker batch/gradient buffers, the
//! server's submission set, GAR scratch) is recycled across rounds, so
//! steady-state rounds perform **no** heap allocation. Each round it
//! decides whether the honest workers compute inline, or are shared
//! between the driving thread and persistent OS threads of a
//! [`LeasePool`](dpbyz_tensor::LeasePool), each claiming the next
//! uncomputed worker from one cursor: only runs whose per-worker round
//! work reaches a measured cutoff (the paper's §5.1 cell does) share
//! their rounds, and only with the cores that other in-process runs
//! leave free. Histories are **bit-identical** at every thread count, and
//! a shared round allocates nothing at steady state either.
//!
//! [`Trainer::run_with_scratch`] additionally takes a [`RunScratch`],
//! recycling the whole working set, worker threads included, across
//! *consecutive runs* — how the sweep executor's pool workers process
//! their (cell × seed) jobs. Distributed engines drive the same
//! [`ServerCore`] through [`Trainer::into_distributed_parts`].
//!
//! # Example
//!
//! ```
//! use dpbyz_server::{Trainer, TrainingConfig};
//! use dpbyz_data::{sampler::{DatasetSource, SamplingMode}, synthetic};
//! use dpbyz_models::{LogisticRegression, LossKind};
//! use dpbyz_gars::Average;
//! use dpbyz_dp::NoNoise;
//! use dpbyz_tensor::Prng;
//! use std::sync::Arc;
//!
//! let mut rng = Prng::seed_from_u64(0);
//! let ds = Arc::new(synthetic::phishing_like(&mut rng, 400));
//! let (train, test) = ds.split(0.75, &mut rng).unwrap();
//! let train = Arc::new(train);
//! let model = Arc::new(LogisticRegression::new(68, LossKind::SigmoidMse));
//!
//! let config = TrainingConfig {
//!     n_workers: 5,
//!     n_byzantine: 0,
//!     batch_size: 25,
//!     steps: 50,
//!     ..TrainingConfig::default()
//! }
//! .validate()
//! .unwrap();
//! let sources = (0..5)
//!     .map(|_| {
//!         Box::new(DatasetSource::new(train.clone(), SamplingMode::WithReplacement))
//!             as Box<dyn dpbyz_data::sampler::BatchSource>
//!     })
//!     .collect();
//! let trainer = Trainer::new(config, model, sources, Some(Arc::new(test)))
//!     .gar(Arc::new(Average::new()))
//!     .mechanism(Arc::new(NoNoise));
//! let history = trainer.run(1).unwrap();
//! assert_eq!(history.train_loss.len(), 50);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod metrics;
mod observer;
mod schedule;
mod trainer;
mod worker;

pub use config::{AttackVisibility, BatchGrowth, ConfigError, MomentumMode, TrainingConfig};
pub use metrics::{ChurnStats, RunHistory, SeedSummary};
pub use observer::{FnObserver, RunObserver, StepMetrics};
pub use schedule::LrSchedule;
pub use trainer::{
    derive_streams, RoundJob, RunScratch, ServerCore, SharedRound, Trainer, WorkerPool,
};
pub use worker::{HonestWorker, WorkerOutput};
