//! The variance-to-norm (VN) ratio — the certification quantity of Eq. 2.
//!
//! `VN = √(E‖G − E[G]‖²) / ‖E[G]‖`; a GAR `F` is certified
//! `(α, f)`-Byzantine resilient when `VN ≤ κ_F(n, f)`. This module provides
//! empirical estimators of the ratio from a sample of honest gradients,
//! used by the experiment harness to measure where training actually sits
//! relative to each GAR's threshold.

use crate::GarError;
use dpbyz_tensor::Vector;

/// An empirical VN-ratio measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VnEstimate {
    /// Estimate of `E‖G − E[G]‖²` (unbiased, around the sample mean).
    pub variance: f64,
    /// Estimate of `‖E[G]‖` (norm of the sample mean).
    pub mean_norm: f64,
}

impl VnEstimate {
    /// The ratio `√variance / mean_norm` (`+∞` if the mean norm is 0).
    pub fn ratio(&self) -> f64 {
        if self.mean_norm == 0.0 {
            f64::INFINITY
        } else {
            self.variance.sqrt() / self.mean_norm
        }
    }
}

/// Estimates the VN ratio from a sample of honest (possibly noisy)
/// gradients of the same step.
///
/// # Errors
///
/// [`GarError::Empty`] with fewer than 2 gradients,
/// [`GarError::DimensionMismatch`] for ragged input.
pub fn estimate(honest_gradients: &[Vector]) -> Result<VnEstimate, GarError> {
    estimate_with(honest_gradients, &mut Vector::default())
}

/// [`estimate`] with a caller-provided mean scratch buffer, so the
/// per-round VN diagnostics allocate nothing at steady state. Bit-identical
/// to [`estimate`] (same mean accumulation, same sum-of-squares order).
///
/// # Errors
///
/// As [`estimate`].
pub fn estimate_with(
    honest_gradients: &[Vector],
    mean: &mut Vector,
) -> Result<VnEstimate, GarError> {
    if honest_gradients.len() < 2 {
        return Err(GarError::Empty);
    }
    let dim = honest_gradients[0].dim();
    for g in honest_gradients {
        if g.dim() != dim {
            return Err(GarError::DimensionMismatch {
                expected: dim,
                actual: g.dim(),
            });
        }
    }
    Vector::mean_into(honest_gradients, mean).expect("validated input"); // lint:allow(panic-unwrap, reason = "the caller validated a non-empty honest cohort")
    let ss: f64 = honest_gradients
        .iter()
        .map(|v| v.l2_distance_squared(mean))
        .sum();
    Ok(VnEstimate {
        variance: ss / (honest_gradients.len() - 1) as f64,
        mean_norm: mean.l2_norm(),
    })
}

/// The *theoretical* VN ratio after DP noise injection (numerator of
/// Eq. 8): `√(σ_G² + d·s²) / ‖∇Q‖`, where `σ_G²` is the intrinsic gradient
/// variance and `s` the per-coordinate noise std.
#[cfg(test)]
fn ratio_with_noise(gradient_variance: f64, dim: usize, noise_std: f64, grad_norm: f64) -> f64 {
    assert!(gradient_variance >= 0.0 && noise_std >= 0.0 && grad_norm >= 0.0);
    if grad_norm == 0.0 {
        return f64::INFINITY;
    }
    (gradient_variance + dim as f64 * noise_std * noise_std).sqrt() / grad_norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbyz_tensor::Prng;

    #[test]
    fn identical_gradients_have_zero_ratio() {
        let grads = vec![Vector::from(vec![1.0, 1.0]); 5];
        let est = estimate(&grads).unwrap();
        assert_eq!(est.variance, 0.0);
        assert_eq!(est.ratio(), 0.0);
    }

    #[test]
    fn zero_mean_gives_infinite_ratio() {
        let grads = vec![Vector::from(vec![1.0]), Vector::from(vec![-1.0])];
        let est = estimate(&grads).unwrap();
        assert_eq!(est.mean_norm, 0.0);
        assert!(est.ratio().is_infinite());
    }

    #[test]
    fn estimator_recovers_known_moments() {
        // Gradients ~ N(mu, sigma^2 I_d): E||G - EG||^2 = d sigma^2.
        let mut rng = Prng::seed_from_u64(1);
        let d = 10;
        let mu = Vector::filled(d, 2.0);
        let sigma = 0.5;
        let grads: Vec<Vector> = (0..5000)
            .map(|_| &mu + &rng.normal_vector(d, sigma))
            .collect();
        let est = estimate(&grads).unwrap();
        let expected_var = d as f64 * sigma * sigma;
        assert!(
            (est.variance - expected_var).abs() / expected_var < 0.1,
            "variance {} vs {}",
            est.variance,
            expected_var
        );
        let expected_ratio = expected_var.sqrt() / mu.l2_norm();
        assert!((est.ratio() - expected_ratio).abs() / expected_ratio < 0.1);
    }

    #[test]
    fn noise_increases_theoretical_ratio() {
        let base = ratio_with_noise(1.0, 100, 0.0, 2.0);
        let noisy = ratio_with_noise(1.0, 100, 0.1, 2.0);
        assert!(noisy > base);
        // d·s² = 1 adds up with σ² = 1: ratio = √2/2.
        assert!((noisy - (2f64).sqrt() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_with_noise_grows_with_dimension() {
        let r100 = ratio_with_noise(0.0, 100, 0.1, 1.0);
        let r400 = ratio_with_noise(0.0, 400, 0.1, 1.0);
        assert!((r400 / r100 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn estimate_rejects_degenerate_input() {
        assert!(estimate(&[]).is_err());
        assert!(estimate(&[Vector::zeros(2)]).is_err());
        let ragged = vec![Vector::zeros(2), Vector::zeros(3)];
        assert!(matches!(
            estimate(&ragged),
            Err(GarError::DimensionMismatch { .. })
        ));
    }
}
