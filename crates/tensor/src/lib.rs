//! Dense linear algebra, statistics, and seeded random sampling for
//! `dp-byz-sgd`.
//!
//! This crate is the lowest layer of the workspace: everything that touches a
//! gradient — models, differential-privacy mechanisms, Byzantine aggregation
//! rules, attacks — operates on the [`Vector`] and [`Matrix`] types defined
//! here, and draws randomness from the deterministic, split-able [`Prng`].
//!
//! # Design notes
//!
//! * [`Vector`] is a thin newtype over `Vec<f64>` with the arithmetic needed
//!   by SGD (axpy, dot, norms, clipping) implemented directly; no BLAS is
//!   used so the whole stack stays auditable and reproducible. The inner
//!   loops live in the explicit [`kernels`] layer — 4-lane blocked
//!   reductions and lane-unrolled elementwise kernels with fixed,
//!   machine-independent summation order.
//! * The normal and Laplace samplers in [`rng`] are implemented in-tree
//!   (polar Box–Muller, inverse CDF) because they sit on the
//!   differential-privacy critical path and must be reviewable.
//! * All randomness is seeded: a run of any experiment in the workspace is a
//!   pure function of its seed.
//!
//! # Example
//!
//! ```
//! use dpbyz_tensor::{Vector, Prng};
//!
//! let mut rng = Prng::seed_from_u64(42);
//! let g = Vector::from(vec![3.0, 4.0]);
//! assert_eq!(g.l2_norm(), 5.0);
//! let noisy = &g + &rng.normal_vector(2, 0.1);
//! assert_eq!(noisy.dim(), 2);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod error;
pub mod kernels;
mod matrix;
mod pool;
pub mod rng;
pub mod stats;
mod vector;

pub use error::TensorError;
pub use matrix::Matrix;
pub use pool::{Lease, LeasePool};
pub use rng::Prng;
pub use vector::Vector;
