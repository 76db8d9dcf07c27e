//! Dataset substrate for `dp-byz-sgd`.
//!
//! The paper's experiments train a logistic-regression model on the LIBSVM
//! `phishing` dataset (11 055 points, 68 features). This crate provides:
//!
//! * [`Dataset`] — an in-memory feature table + label vector with train/test
//!   splitting and feature scaling, which lays its rows out once as
//!   [`RowPanels`] for batched evaluation;
//! * [`Batch`] — a mini-batch as a selection of rows: a shared dataset plus
//!   one index per selected row (duplicates allowed). Sampling a batch
//!   writes only the indices, and models read the rows in place;
//! * [`libsvm`] — a parser/serializer for the LIBSVM sparse text format, so
//!   the *real* `phishing` file can be dropped in unchanged;
//! * [`synthetic`] — seeded generators, notably [`synthetic::phishing_like`]
//!   (the documented substitute for the real dataset — same dimensionality,
//!   scale, class balance, and achievable accuracy) and
//!   [`synthetic::MeanEstimation`] (the `D = N(x̄, σ²/d · I_d)` distribution
//!   used in Theorem 1's lower-bound construction);
//! * [`sampler`] — seeded with/without-replacement batch samplers giving
//!   each simulated worker an independent i.i.d. stream, as the paper's
//!   model requires. Each refills a recycled [`Batch`] in place.
//!
//! # Example
//!
//! ```
//! use dpbyz_data::synthetic;
//! use dpbyz_tensor::Prng;
//!
//! let mut rng = Prng::seed_from_u64(1);
//! let ds = synthetic::phishing_like(&mut rng, 200);
//! let (train, test) = ds.split(0.75, &mut rng).unwrap();
//! assert_eq!(train.len() + test.len(), 200);
//! assert_eq!(train.num_features(), 68);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod dataset;
mod error;
pub mod libsvm;
mod panels;
pub mod sampler;
pub mod synthetic;

pub use dataset::{Batch, Dataset};
pub use error::DataError;
pub use panels::{RowPanels, PANEL_ROWS};
