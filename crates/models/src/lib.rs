//! Model substrate for `dp-byz-sgd`: differentiable models and losses.
//!
//! Models are *stateless* — parameters travel as a
//! [`Vector`](dpbyz_tensor::Vector) so one `Arc<dyn Model>` can be shared by
//! all simulated workers while the parameter server owns the single source
//! of truth for `w_t` (exactly the parameter-server protocol of the paper).
//!
//! Provided models:
//!
//! * [`LogisticRegression`] — the paper's evaluation model: sigmoid output
//!   with **mean-squared-error** loss ([`LossKind::SigmoidMse`], the
//!   combination §5.1 specifies), d = features + 1; cross-entropy is also
//!   available.
//! * [`LinearRegression`] — ½-MSE linear model.
//! * [`QuadraticMean`] — `Q(w) = ½·E‖w − x‖²`, the strongly convex
//!   (λ = μ = 1) cost of Theorem 1's lower-bound construction.
//!
//! # Example
//!
//! ```
//! use dpbyz_models::{LogisticRegression, LossKind, Model};
//! use dpbyz_data::synthetic;
//! use dpbyz_tensor::{Prng, Vector};
//!
//! let mut rng = Prng::seed_from_u64(0);
//! let ds = synthetic::phishing_like(&mut rng, 100);
//! let model = LogisticRegression::new(ds.num_features(), LossKind::SigmoidMse);
//! let params = Vector::zeros(model.dim());
//! let g = model.gradient(&params, &ds.full_batch());
//! assert_eq!(g.dim(), 69);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod linear;
mod logistic;
pub mod metrics;
mod quadratic;
mod traits;

pub use linear::LinearRegression;
pub use logistic::{sigmoid, LogisticRegression, LossKind};
pub use quadratic::QuadraticMean;
pub use traits::{finite_difference_gap, Model};
