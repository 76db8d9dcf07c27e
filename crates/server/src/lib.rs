//! Parameter-server distributed SGD simulator.
//!
//! Implements the system model of the paper's Fig. 1(b): `n` workers — up to
//! `f` of them Byzantine and colluding — send gradients each synchronous
//! step to an *honest-but-curious* parameter server, which aggregates them
//! with a GAR and updates the model (Eq. 9). Honest workers clip their
//! stochastic gradients and pass them through a local DP randomizer before
//! submission (Eq. 7).
//!
//! Two execution engines produce **bit-identical** histories given the same
//! [`TrainingConfig`] and seed:
//!
//! * [`Trainer`] — sequential, zero-copy: the round hot path (worker
//!   batch/gradient buffers, the server's submission set, GAR scratch)
//!   is recycled across rounds, so steady-state rounds perform **no**
//!   heap allocation;
//! * [`ThreadedTrainer`] — the same round loop with each worker computing
//!   on its own persistent OS thread of a
//!   [`LeasePool`](dpbyz_tensor::LeasePool); steady-state rounds allocate
//!   nothing on this engine either.
//!
//! Both engines additionally accept a [`RunScratch`]
//! (`run_with_scratch`), recycling the whole working set across
//! *consecutive runs* — how the sweep executor's pool workers process
//! their (cell × seed) jobs.
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
//! let config = TrainingConfig::builder()
//!     .workers(5, 0)
//!     .batch_size(25)
//!     .steps(50)
//!     .build()
//!     .unwrap();
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
mod threaded;
mod trainer;
mod worker;

pub use config::{
    AttackVisibility, BatchGrowth, ConfigError, MomentumMode, TrainingConfig, TrainingConfigBuilder,
};
pub use metrics::{ChurnStats, RunHistory, SeedSummary};
pub use observer::{FnObserver, RunObserver, StepMetrics};
pub use schedule::LrSchedule;
pub use threaded::ThreadedTrainer;
pub use trainer::{derive_streams, RunScratch, ServerCore, Trainer};
pub use worker::{HonestWorker, WorkerOutput};
