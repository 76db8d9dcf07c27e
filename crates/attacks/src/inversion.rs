//! Gradient-inversion: the *privacy* attack motivating the DP side of the
//! paper.
//!
//! Zhu et al. ("Deep Leakage from Gradients", NeurIPS 2019 — the paper's
//! \[43\]) showed a curious parameter server can reconstruct training samples
//! from the gradients workers share in the clear. For the generalized
//! linear models in this workspace the reconstruction is *closed-form*:
//! a single-sample gradient of `ℓ(w·x + b, y)` factors as
//!
//! ```text
//! ∇_w = δ · x,    ∇_b = δ        (δ = dℓ/dz)
//! ```
//!
//! so `x = ∇_w / ∇_b` exactly. This module implements that attack for
//! `LinearRegression` and `LogisticRegression` (both of its losses) and
//! quantifies how worker-local DP noise (Eq. 6) destroys it — the
//! "before/after" the paper's threat model rests on.
//!
//! # Example
//!
//! ```
//! use dpbyz_attacks::inversion;
//! use dpbyz_models::{LogisticRegression, LossKind, Model};
//! use dpbyz_data::Batch;
//! use dpbyz_tensor::{Matrix, Vector};
//!
//! let model = LogisticRegression::new(3, LossKind::CrossEntropy);
//! let params = Vector::from(vec![0.1, -0.2, 0.3, 0.0]);
//! let x = vec![0.5, 1.0, -0.25];
//! let batch = Batch::new(Matrix::from_rows(&[x.clone()]).unwrap(), vec![1.0]).unwrap();
//! let grad = model.gradient(&params, &batch);
//!
//! assert!(inversion::reconstruction_mse(&grad, &x) < 1e-18);
//! ```

use dpbyz_tensor::Vector;

/// Inverts a *single-sample* gradient of any generalized linear model with
/// a trailing bias coordinate (`[∇_w …, ∇_b]`, the layout of
/// `LinearRegression` and `LogisticRegression`) into its feature vector.
///
/// Returns `None` when `|∇_b|` is numerically zero — a saturated or
/// zero-residual sample genuinely leaks nothing through this channel.
fn invert_glm_gradient(gradient: &Vector, num_features: usize) -> Option<Vector> {
    assert_eq!(
        gradient.dim(),
        num_features + 1,
        "gradient layout must be [w..., b]"
    );
    let delta = gradient[num_features];
    if delta.abs() < 1e-12 {
        return None;
    }
    Some((0..num_features).map(|j| gradient[j] / delta).collect())
}

/// Mean squared reconstruction error of the attack against a known sample,
/// `‖x̂ − x‖² / d` — the metric the DP-vs-no-DP comparison reports.
/// Returns `+∞` when inversion fails entirely.
pub fn reconstruction_mse(gradient: &Vector, true_features: &[f64]) -> f64 {
    match invert_glm_gradient(gradient, true_features.len()) {
        None => f64::INFINITY,
        Some(features) => {
            features.l2_distance_squared(&Vector::from(true_features)) / true_features.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbyz_data::Batch;
    use dpbyz_dp::{GaussianMechanism, Mechanism, PrivacyBudget};
    use dpbyz_models::{LinearRegression, LogisticRegression, LossKind, Model};
    use dpbyz_tensor::{Matrix, Prng};

    fn single_sample_batch(x: &[f64], y: f64) -> Batch {
        Batch::new(Matrix::from_rows(&[x.to_vec()]).unwrap(), vec![y]).unwrap()
    }

    #[test]
    fn exact_recovery_linear_regression() {
        let model = LinearRegression::new(4);
        let params = Vector::from(vec![0.3, -0.1, 0.2, 0.5, -0.7]);
        let x = [1.5, -2.0, 0.25, 3.0];
        let grad = model.gradient(&params, &single_sample_batch(&x, 0.9));
        let rec = invert_glm_gradient(&grad, 4).unwrap();
        assert!(rec.approx_eq(&Vector::from(&x[..]), 1e-9));
        assert!(reconstruction_mse(&grad, &x) < 1e-18);
    }

    #[test]
    fn exact_recovery_logistic_both_losses() {
        for loss in [LossKind::SigmoidMse, LossKind::CrossEntropy] {
            let model = LogisticRegression::new(3, loss);
            let params = Vector::from(vec![0.4, 0.1, -0.3, 0.2]);
            let x = [0.0, 1.0, 0.5];
            let grad = model.gradient(&params, &single_sample_batch(&x, 1.0));
            let rec = invert_glm_gradient(&grad, 3).expect("residual nonzero");
            assert!(
                rec.approx_eq(&Vector::from(&x[..]), 1e-8),
                "{loss:?} failed: {rec:?}"
            );
        }
    }

    #[test]
    fn zero_residual_leaks_nothing() {
        // Perfect prediction ⇒ zero gradient ⇒ nothing to invert.
        let model = LinearRegression::new(2);
        let params = Vector::from(vec![1.0, 1.0, 0.0]);
        let x = [2.0, 3.0];
        let y = 5.0; // w·x + b exactly
        let grad = model.gradient(&params, &single_sample_batch(&x, y));
        assert!(invert_glm_gradient(&grad, 2).is_none());
        assert!(reconstruction_mse(&grad, &x).is_infinite());
    }

    #[test]
    fn dp_noise_defeats_inversion() {
        // The headline defensive claim: with the paper's Eq. 6 noise the
        // reconstruction error explodes by many orders of magnitude.
        let model = LogisticRegression::new(8, LossKind::CrossEntropy);
        let mut rng = Prng::seed_from_u64(7);
        let params = rng.normal_vector(9, 0.5);
        let x: Vec<f64> = (0..8).map(|_| rng.uniform_range(0.0, 1.0)).collect();
        let clean_grad = model.gradient(&params, &single_sample_batch(&x, 1.0));

        let clean_mse = reconstruction_mse(&clean_grad, &x);
        assert!(
            clean_mse < 1e-16,
            "clean attack should be exact: {clean_mse}"
        );

        // Worker-local DP: clip then add calibrated Gaussian noise (b = 1
        // — the worst case for privacy, strongest case for the attack).
        let budget = PrivacyBudget::new(0.2, 1e-6).unwrap();
        let mech = GaussianMechanism::for_clipped_gradients(budget, 0.01, 1).unwrap();
        let noisy = mech.perturb(&clean_grad.clipped_l2(0.01), &mut rng);
        let noisy_mse = reconstruction_mse(&noisy, &x);
        assert!(
            noisy_mse > 1.0,
            "DP failed to defeat inversion: mse {noisy_mse}"
        );
    }

    #[test]
    fn batch_gradients_blur_reconstruction() {
        // Even without DP, averaging over a batch already mixes samples —
        // the attack is exact only at b = 1.
        let model = LinearRegression::new(3);
        let mut rng = Prng::seed_from_u64(9);
        let params = rng.normal_vector(4, 1.0);
        let x1 = [1.0, 0.0, 2.0];
        let x2 = [-1.0, 3.0, 0.5];
        let batch = Batch::new(
            Matrix::from_rows(&[x1.to_vec(), x2.to_vec()]).unwrap(),
            vec![0.7, -0.4],
        )
        .unwrap();
        let grad = model.gradient(&params, &batch);
        let mse1 = reconstruction_mse(&grad, &x1);
        assert!(mse1 > 1e-6, "batch mean should not recover x1 exactly");
    }

    #[test]
    #[should_panic(expected = "gradient layout")]
    fn wrong_layout_panics() {
        let _ = invert_glm_gradient(&Vector::zeros(3), 3);
    }
}
