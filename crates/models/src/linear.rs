//! Linear regression with ½-MSE loss.

use crate::Model;
use dpbyz_data::Batch;
use dpbyz_tensor::Vector;
use serde::{Deserialize, Serialize};

/// Linear regression with bias: `ŷ = <w, x> + b`, loss `½(ŷ − y)²`.
///
/// Parameter layout `[w_1 … w_k, b]`, `dim = num_features + 1`.
///
/// # Example
///
/// ```
/// use dpbyz_models::{LinearRegression, Model};
/// use dpbyz_tensor::Vector;
///
/// let m = LinearRegression::new(2);
/// let params = Vector::from(vec![1.0, -1.0, 0.5]);
/// assert_eq!(m.predict(&params, &[2.0, 1.0]), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinearRegression {
    num_features: usize,
}

impl LinearRegression {
    /// Creates a model over `num_features` input features.
    ///
    /// # Panics
    ///
    /// Panics if `num_features == 0`.
    pub fn new(num_features: usize) -> Self {
        assert!(num_features > 0, "num_features must be positive");
        LinearRegression { num_features }
    }

    fn raw(&self, params: &Vector, features: &[f64]) -> f64 {
        debug_assert_eq!(features.len(), self.num_features);
        let w = params.as_slice();
        let mut z = w[self.num_features];
        for (wi, xi) in w[..self.num_features].iter().zip(features) {
            z += wi * xi;
        }
        z
    }
}

impl Model for LinearRegression {
    fn dim(&self) -> usize {
        self.num_features + 1
    }

    fn loss(&self, params: &Vector, batch: &Batch) -> f64 {
        assert!(!batch.is_empty(), "loss over an empty batch is undefined");
        let mut total = 0.0;
        for i in 0..batch.len() {
            let (x, y) = batch.example(i);
            let r = self.raw(params, x) - y;
            total += 0.5 * r * r;
        }
        total / batch.len() as f64
    }

    fn gradient_into(&self, params: &Vector, batch: &Batch, out: &mut Vector) {
        assert!(
            !batch.is_empty(),
            "gradient over an empty batch is undefined"
        );
        out.resize(self.dim(), 0.0);
        out.fill(0.0);
        let g = out.as_mut_slice();
        for i in 0..batch.len() {
            let (x, y) = batch.example(i);
            let r = self.raw(params, x) - y;
            for (j, &xj) in x.iter().enumerate() {
                g[j] += r * xj;
            }
            g[self.num_features] += r;
        }
        out.scale(1.0 / batch.len() as f64);
    }

    fn predict(&self, params: &Vector, features: &[f64]) -> f64 {
        self.raw(params, features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::finite_difference_gap;
    use dpbyz_data::synthetic;
    use dpbyz_tensor::Prng;

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = Prng::seed_from_u64(1);
        let (ds, _) = synthetic::linear_regression(&mut rng, 30, 4, 0.1);
        let m = LinearRegression::new(4);
        let params = rng.normal_vector(m.dim(), 1.0);
        let gap = finite_difference_gap(&m, &params, &ds.full_batch(), 1e-5);
        assert!(gap < 1e-6, "gap {gap}");
    }

    #[test]
    fn recovers_ground_truth_weights() {
        let mut rng = Prng::seed_from_u64(2);
        let (ds, w_star) = synthetic::linear_regression(&mut rng, 400, 3, 0.0);
        let m = LinearRegression::new(3);
        let batch = ds.full_batch();
        let mut params = Vector::zeros(m.dim());
        for _ in 0..400 {
            let g = m.gradient(&params, &batch);
            params.axpy(-0.1, &g);
        }
        for j in 0..3 {
            assert!(
                (params[j] - w_star[j]).abs() < 0.05,
                "w[{j}] = {} vs {}",
                params[j],
                w_star[j]
            );
        }
        assert!(params[3].abs() < 0.05, "bias {}", params[3]);
    }

    #[test]
    fn loss_zero_on_perfect_fit() {
        let mut rng = Prng::seed_from_u64(3);
        let (ds, w_star) = synthetic::linear_regression(&mut rng, 50, 2, 0.0);
        let m = LinearRegression::new(2);
        let mut params = Vector::zeros(3);
        params[0] = w_star[0];
        params[1] = w_star[1];
        assert!(m.loss(&params, &ds.full_batch()) < 1e-12);
    }
}
