//! The strongly convex mean-estimation cost of Theorem 1:
//! `Q(w) = ½·E_{x∼D}‖w − x‖²`, with empirical per-sample counterpart
//! `Q(w, x) = ½‖w − x‖²`.
//!
//! Properties (all used by the theorem): λ-strong convexity and
//! μ-Lipschitz gradients with λ = μ = 1; minimizer `w* = x̄`;
//! `Q(w) − Q* = ½‖w − x̄‖²`.

use crate::Model;
use dpbyz_data::Batch;
use dpbyz_tensor::{kernels, Vector};
use serde::{Deserialize, Serialize};

/// Mean-estimation model: parameters are the current estimate `w`, each
/// "example" is a sample `x ~ D` stored as a feature row (labels unused).
///
/// # Example
///
/// ```
/// use dpbyz_models::{Model, QuadraticMean};
/// use dpbyz_data::synthetic::MeanEstimation;
/// use dpbyz_tensor::{Prng, Vector};
///
/// let mut rng = Prng::seed_from_u64(0);
/// let dist = MeanEstimation::new(Vector::from(vec![1.0, 2.0]), 1.0);
/// let model = QuadraticMean::new(2);
/// let batch = dist.sample_batch(8, &mut rng);
/// // Gradient at w = 0 points at minus the batch mean.
/// let g = model.gradient(&Vector::zeros(2), &batch);
/// assert_eq!(g.dim(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuadraticMean {
    dim: usize,
}

impl QuadraticMean {
    /// Creates the model in dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        QuadraticMean { dim }
    }

    /// Suboptimality `Q(w) − Q* = ½‖w − x̄‖²` given the true mean.
    pub fn suboptimality(&self, params: &Vector, true_mean: &Vector) -> f64 {
        0.5 * params.l2_distance_squared(true_mean)
    }
}

impl Model for QuadraticMean {
    fn dim(&self) -> usize {
        self.dim
    }

    fn loss(&self, params: &Vector, batch: &Batch) -> f64 {
        assert!(!batch.is_empty(), "loss over an empty batch is undefined");
        let mut total = 0.0;
        for (x, _) in batch.iter() {
            // The kernel behind `Vector::l2_distance_squared`, on the
            // row in place.
            total += 0.5 * kernels::squared_distance(params.as_slice(), x);
        }
        total / batch.len() as f64
    }

    fn gradient_into(&self, params: &Vector, batch: &Batch, out: &mut Vector) {
        assert!(
            !batch.is_empty(),
            "gradient over an empty batch is undefined"
        );
        // ∇Q(w, x) = w − x, averaged: w − mean(batch), accumulated straight
        // from the feature rows (no per-example vector clones).
        out.resize(self.dim, 0.0);
        out.fill(0.0);
        for i in 0..batch.len() {
            let (x, _) = batch.example(i);
            for (o, &xj) in out.as_mut_slice().iter_mut().zip(x) {
                *o += xj;
            }
        }
        out.scale(1.0 / batch.len() as f64);
        for (o, &p) in out.as_mut_slice().iter_mut().zip(params.as_slice()) {
            *o = p - *o;
        }
    }

    fn predict(&self, params: &Vector, features: &[f64]) -> f64 {
        // "Prediction" is the (negated) distance to the sample — not
        // meaningful for classification; provided for trait completeness.
        -kernels::squared_distance(params.as_slice(), features).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::finite_difference_gap;
    use dpbyz_data::synthetic::MeanEstimation;
    use dpbyz_tensor::Prng;

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = Prng::seed_from_u64(1);
        let dist = MeanEstimation::random_instance(&mut rng, 5, 1.0);
        let batch = dist.sample_batch(16, &mut rng);
        let m = QuadraticMean::new(5);
        let params = rng.normal_vector(5, 1.0);
        let gap = finite_difference_gap(&m, &params, &batch, 1e-6);
        assert!(gap < 1e-7, "gap {gap}");
    }

    #[test]
    fn gradient_is_w_minus_batch_mean() {
        let mut rng = Prng::seed_from_u64(2);
        let dist = MeanEstimation::random_instance(&mut rng, 3, 2.0);
        let batch = dist.sample_batch(9, &mut rng);
        let m = QuadraticMean::new(3);
        let w = Vector::from(vec![1.0, 2.0, 3.0]);
        let g = m.gradient(&w, &batch);
        let mut mean = Vector::zeros(3);
        for (x, _) in batch.iter() {
            mean += &Vector::from(x);
        }
        mean.scale(1.0 / 9.0);
        assert!(g.approx_eq(&(&w - &mean), 1e-12));
    }

    #[test]
    fn sgd_converges_to_true_mean() {
        let mut rng = Prng::seed_from_u64(3);
        let dist = MeanEstimation::random_instance(&mut rng, 8, 1.0);
        let m = QuadraticMean::new(8);
        let mut w = Vector::zeros(8);
        // γ_t = 1/(λ t) as in Theorem 1 (λ = 1, α = 0).
        for t in 1..=2000u32 {
            let batch = dist.sample_batch(4, &mut rng);
            let g = m.gradient(&w, &batch);
            w.axpy(-1.0 / t as f64, &g);
        }
        let sub = m.suboptimality(&w, dist.true_mean());
        assert!(sub < 0.01, "suboptimality {sub}");
    }

    #[test]
    fn moduli_are_one() {
        // ∇Q(w) − ∇Q(v) = w − v on any batch: the strong-convexity and
        // gradient-Lipschitz moduli λ = μ = 1 that Theorem 1 assumes.
        let mut rng = Prng::seed_from_u64(4);
        let dist = MeanEstimation::random_instance(&mut rng, 4, 1.0);
        let batch = dist.sample_batch(6, &mut rng);
        let m = QuadraticMean::new(4);
        let (w, v) = (rng.normal_vector(4, 1.0), rng.normal_vector(4, 1.0));
        let diff = &m.gradient(&w, &batch) - &m.gradient(&v, &batch);
        assert!(diff.approx_eq(&(&w - &v), 1e-12));
    }
}
