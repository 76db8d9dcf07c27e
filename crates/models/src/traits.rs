//! The [`Model`] trait.

use dpbyz_data::{Batch, Dataset};
use dpbyz_tensor::{Prng, Vector};

/// A differentiable model with externally owned parameters.
///
/// Implementations must satisfy `gradient ≈ ∇loss` (verified in every
/// implementation's tests by central finite differences) and be
/// deterministic functions of `(params, batch)`.
pub trait Model: Send + Sync {
    /// Number of parameters `d`.
    fn dim(&self) -> usize;

    /// Average loss of `params` over `batch`.
    fn loss(&self, params: &Vector, batch: &Batch) -> f64;

    /// Writes the average gradient of the loss over `batch` — the
    /// worker-side map `h` of Eq. (4) — into a caller-provided buffer, the
    /// zero-copy path the buffer-recycling worker loop drives every step.
    /// The result must not depend on what `out` held before the call.
    fn gradient_into(&self, params: &Vector, batch: &Batch, out: &mut Vector);

    /// [`Model::gradient_into`] with a fresh output buffer.
    fn gradient(&self, params: &Vector, batch: &Batch) -> Vector {
        let mut out = Vector::default();
        self.gradient_into(params, batch, &mut out);
        out
    }

    /// Returns [`Model::loss`] and writes [`Model::gradient_into`]'s
    /// gradient into `out` in one call — what the worker loop drives every
    /// step. Must produce the same loss and coordinates as the two
    /// separate calls, bit for bit.
    ///
    /// The default makes the two calls (loss first); models whose loss and
    /// gradient share a forward pass override it to run that pass once.
    fn loss_and_gradient_into(&self, params: &Vector, batch: &Batch, out: &mut Vector) -> f64 {
        let loss = self.loss(params, batch);
        self.gradient_into(params, batch, out);
        loss
    }

    /// Raw model output for a single feature row (for classifiers: the
    /// probability of class 1).
    fn predict(&self, params: &Vector, features: &[f64]) -> f64;

    /// How many rows of `dataset` the model classifies correctly: rows
    /// whose prediction, thresholded at 0.5 (`predict(params, x) >= 0.5`),
    /// agrees with `y == 1.0`. The default predicts row by row; models
    /// that batch their forward pass override it, with the same count.
    /// [`LogisticRegression`](crate::LogisticRegression) reads the
    /// dataset's cached [`Dataset::row_panels`], laying them out on its
    /// first evaluation of that dataset (one allocation, about the size of
    /// the features or half of it), and never allocates after that.
    fn count_correct(&self, params: &Vector, dataset: &Dataset) -> usize {
        (0..dataset.len())
            .filter(|&i| {
                let (x, y) = dataset.example(i);
                (self.predict(params, x) >= 0.5) == (y == 1.0)
            })
            .count()
    }

    /// A fresh parameter vector to start training from. The default is all
    /// zeros (what the paper's convex experiments use); models with
    /// symmetry-breaking needs (the MLP) override it.
    fn init_params(&self, _rng: &mut Prng) -> Vector {
        Vector::zeros(self.dim())
    }
}

/// Checks `gradient` against central finite differences of `loss` at
/// `params`. Intended for tests; exact for the analytic models up to `tol`.
///
/// Returns the maximum absolute coordinate discrepancy.
pub fn finite_difference_gap(model: &dyn Model, params: &Vector, batch: &Batch, eps: f64) -> f64 {
    let analytic = model.gradient(params, batch);
    let mut worst: f64 = 0.0;
    for j in 0..model.dim() {
        let mut plus = params.clone();
        plus[j] += eps;
        let mut minus = params.clone();
        minus[j] -= eps;
        let numeric = (model.loss(&plus, batch) - model.loss(&minus, batch)) / (2.0 * eps);
        worst = worst.max((numeric - analytic[j]).abs());
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbyz_tensor::Matrix;

    /// A quadratic bowl model used to test the harness itself.
    struct Bowl;

    impl Model for Bowl {
        fn dim(&self) -> usize {
            2
        }
        fn loss(&self, params: &Vector, _batch: &Batch) -> f64 {
            0.5 * params.l2_norm_squared()
        }
        fn gradient_into(&self, params: &Vector, _batch: &Batch, out: &mut Vector) {
            out.copy_from(params);
        }
        fn predict(&self, _params: &Vector, _features: &[f64]) -> f64 {
            0.0
        }
    }

    #[test]
    fn finite_difference_harness_accepts_correct_gradient() {
        let batch = Batch::new(Matrix::zeros(1, 1), vec![0.0]).unwrap();
        let p = Vector::from(vec![0.3, -0.7]);
        let gap = finite_difference_gap(&Bowl, &p, &batch, 1e-6);
        assert!(gap < 1e-8, "gap {gap}");
    }

    #[test]
    fn default_init_is_zero() {
        let mut rng = Prng::seed_from_u64(0);
        assert_eq!(Bowl.init_params(&mut rng), Vector::zeros(2));
    }

    #[test]
    fn default_fused_call_equals_the_two_separate_calls() {
        use crate::{LinearRegression, QuadraticMean};
        use dpbyz_data::synthetic;

        let mut rng = Prng::seed_from_u64(6);
        let ds = synthetic::phishing_like(&mut rng, 7);
        let batch = ds.full_batch();
        let k = ds.num_features();
        let models: Vec<Box<dyn Model>> = vec![
            Box::new(LinearRegression::new(k)),
            Box::new(QuadraticMean::new(k)),
        ];
        for model in &models {
            let params = &model.init_params(&mut rng) + &rng.normal_vector(model.dim(), 0.3);
            let loss = model.loss(&params, &batch);
            let mut grad = Vector::default();
            model.gradient_into(&params, &batch, &mut grad);
            let mut fused = Vector::default();
            let fused_loss = model.loss_and_gradient_into(&params, &batch, &mut fused);
            assert_eq!(fused_loss.to_bits(), loss.to_bits());
            let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fused), bits(&grad));
        }
    }
}
