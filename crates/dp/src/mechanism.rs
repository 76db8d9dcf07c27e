//! Noise-injection mechanisms.

use crate::{sensitivity, DpError, PrivacyBudget};
use dpbyz_tensor::{Prng, Vector};
use serde::{Deserialize, Serialize};

/// A local randomizer `M_i` applied by each honest worker to its clipped
/// gradient before submission (Eq. 6–7).
pub trait Mechanism: Send + Sync {
    /// Adds the noise directly into `gradient` — the zero-copy path the
    /// buffer-reusing worker loop drives every step.
    fn perturb_in_place(&self, gradient: &mut Vector, rng: &mut Prng);

    /// Returns `gradient + noise`: [`Mechanism::perturb_in_place`] on a copy.
    fn perturb(&self, gradient: &Vector, rng: &mut Prng) -> Vector {
        let mut noisy = gradient.clone();
        self.perturb_in_place(&mut noisy, rng);
        noisy
    }

    /// Per-coordinate noise standard deviation (0 for [`NoNoise`]).
    fn per_coordinate_std(&self) -> f64;

    /// Total injected noise energy `E‖y‖²` in dimension `dim` — the `d·s²`
    /// term that Eq. 8 adds to the VN-ratio numerator.
    fn total_noise_variance(&self, dim: usize) -> f64;

    /// Mechanism name for reports.
    fn name(&self) -> &'static str;
}

/// The Gaussian mechanism of Eq. 6: adds `y ~ N(0, I_d·s²)`.
///
/// For a map with L2 sensitivity `Δ₂` and a budget `(ε, δ) ∈ (0,1)²`,
/// `s = Δ₂·√(2·ln(1.25/δ)) / ε` gives `(ε, δ)`-DP
/// (Dwork & Roth 2014, Thm. A.1).
///
/// # Example
///
/// ```
/// use dpbyz_dp::{GaussianMechanism, Mechanism, PrivacyBudget};
///
/// let budget = PrivacyBudget::new(0.2, 1e-6).unwrap();
/// // Paper's Eq. 6: s = 2·G_max·√(2·ln(1.25/δ)) / (b·ε).
/// let mech = GaussianMechanism::for_clipped_gradients(budget, 0.01, 50).unwrap();
/// assert!(mech.per_coordinate_std() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaussianMechanism {
    sigma: f64,
}

impl GaussianMechanism {
    /// Calibrates to a generic L2 sensitivity.
    ///
    /// # Errors
    ///
    /// [`DpError::InvalidEpsilon`] if the budget has `ε ≥ 1` (outside the
    /// classical mechanism's validity), [`DpError::InvalidSensitivity`] for
    /// a non-positive sensitivity.
    pub fn calibrate(budget: PrivacyBudget, l2_sensitivity: f64) -> Result<Self, DpError> {
        if !budget.is_classical_gaussian_valid() {
            return Err(DpError::InvalidEpsilon {
                value: budget.epsilon(),
                expected: "(0, 1) for the classical Gaussian mechanism",
            });
        }
        if !(l2_sensitivity > 0.0 && l2_sensitivity.is_finite()) {
            return Err(DpError::InvalidSensitivity(l2_sensitivity));
        }
        let sigma = l2_sensitivity * (2.0 * (1.25 / budget.delta()).ln()).sqrt() / budget.epsilon();
        Ok(GaussianMechanism { sigma })
    }

    /// Eq. 6's calibration for the clipped batch-mean gradient map:
    /// `s = 2·g_max·√(2·ln(1.25/δ)) / (b·ε)`.
    ///
    /// # Errors
    ///
    /// As [`GaussianMechanism::calibrate`], plus [`DpError::ZeroBatch`].
    pub fn for_clipped_gradients(
        budget: PrivacyBudget,
        g_max: f64,
        batch_size: usize,
    ) -> Result<Self, DpError> {
        Self::calibrate(budget, sensitivity::l2_clipped_mean(g_max, batch_size)?)
    }

    /// Builds directly from a noise standard deviation (for tests and
    /// ablations).
    ///
    /// # Errors
    ///
    /// [`DpError::InvalidSensitivity`] for negative/non-finite `sigma`.
    pub fn with_sigma(sigma: f64) -> Result<Self, DpError> {
        if !(sigma >= 0.0 && sigma.is_finite()) {
            return Err(DpError::InvalidSensitivity(sigma));
        }
        Ok(GaussianMechanism { sigma })
    }

    /// The calibrated per-coordinate noise std `s`.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl Mechanism for GaussianMechanism {
    fn perturb_in_place(&self, gradient: &mut Vector, rng: &mut Prng) {
        // The noise is drawn a stack chunk at a time with the same
        // per-coordinate draw order as `normal_vector`, then added in
        // place: the stream and the sums match `g + normal_vector` bit
        // for bit (the reference the tests hold it to).
        let mut noise = [0.0; 64];
        for chunk in gradient.as_mut_slice().chunks_mut(noise.len()) {
            let noise = &mut noise[..chunk.len()];
            rng.fill_normal_into(noise, 0.0, self.sigma);
            for (x, &y) in chunk.iter_mut().zip(noise.iter()) {
                *x += y;
            }
        }
    }

    fn per_coordinate_std(&self) -> f64 {
        self.sigma
    }

    fn total_noise_variance(&self, dim: usize) -> f64 {
        dim as f64 * self.sigma * self.sigma
    }

    fn name(&self) -> &'static str {
        "gaussian"
    }
}

/// The Laplace mechanism: adds i.i.d. `Lap(0, scale)` per coordinate,
/// `scale = Δ₁ / ε`, giving pure `ε`-DP.
///
/// For the clipped batch-mean gradient, `Δ₁ = 2·g_max·√d / b`, so the
/// per-coordinate noise already carries a `√d` factor and the total noise
/// energy grows as `d²` — Remark 3's observation that switching mechanisms
/// does not rescue the DP/Byzantine combination.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaplaceMechanism {
    scale: f64,
}

impl LaplaceMechanism {
    /// Calibrates to an L1 sensitivity and a pure-DP `ε`.
    ///
    /// # Errors
    ///
    /// [`DpError::InvalidEpsilon`] for non-positive `ε`,
    /// [`DpError::InvalidSensitivity`] for non-positive sensitivity.
    pub fn calibrate(epsilon: f64, l1_sensitivity: f64) -> Result<Self, DpError> {
        if !(epsilon > 0.0 && epsilon.is_finite()) {
            return Err(DpError::InvalidEpsilon {
                value: epsilon,
                expected: "(0, inf)",
            });
        }
        if !(l1_sensitivity > 0.0 && l1_sensitivity.is_finite()) {
            return Err(DpError::InvalidSensitivity(l1_sensitivity));
        }
        Ok(LaplaceMechanism {
            scale: l1_sensitivity / epsilon,
        })
    }

    /// Calibration for the clipped batch-mean gradient map in dimension
    /// `dim`.
    ///
    /// # Errors
    ///
    /// As [`LaplaceMechanism::calibrate`] plus [`DpError::ZeroBatch`].
    pub fn for_clipped_gradients(
        epsilon: f64,
        g_max: f64,
        batch_size: usize,
        dim: usize,
    ) -> Result<Self, DpError> {
        Self::calibrate(
            epsilon,
            sensitivity::l1_clipped_mean(g_max, batch_size, dim)?,
        )
    }

    /// The noise scale `b` of `Lap(0, b)`.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl Mechanism for LaplaceMechanism {
    fn perturb_in_place(&self, gradient: &mut Vector, rng: &mut Prng) {
        for x in gradient.as_mut_slice() {
            *x += rng.laplace(self.scale);
        }
    }

    fn per_coordinate_std(&self) -> f64 {
        // Var[Lap(0, b)] = 2 b².
        self.scale * 2f64.sqrt()
    }

    fn total_noise_variance(&self, dim: usize) -> f64 {
        dim as f64 * 2.0 * self.scale * self.scale
    }

    fn name(&self) -> &'static str {
        "laplace"
    }
}

/// The identity mechanism — no privacy, no noise. Used by all of the
/// paper's "without privacy noise" baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NoNoise;

impl Mechanism for NoNoise {
    fn perturb_in_place(&self, _gradient: &mut Vector, _rng: &mut Prng) {}

    fn per_coordinate_std(&self) -> f64 {
        0.0
    }

    fn total_noise_variance(&self, _dim: usize) -> f64 {
        0.0
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbyz_tensor::stats::Welford;

    fn paper_budget() -> PrivacyBudget {
        PrivacyBudget::new(0.2, 1e-6).unwrap()
    }

    #[test]
    fn gaussian_sigma_matches_eq6() {
        // s = 2·G_max·√(2·ln(1.25/δ)) / (b·ε)
        let mech = GaussianMechanism::for_clipped_gradients(paper_budget(), 0.01, 50).unwrap();
        let expected = 2.0 * 0.01 * (2.0 * (1.25f64 / 1e-6).ln()).sqrt() / (50.0 * 0.2);
        assert!((mech.sigma() - expected).abs() < 1e-15);
    }

    #[test]
    fn gaussian_rejects_large_epsilon() {
        let b = PrivacyBudget::new(2.0, 1e-6).unwrap();
        assert!(matches!(
            GaussianMechanism::calibrate(b, 1.0),
            Err(DpError::InvalidEpsilon { .. })
        ));
    }

    #[test]
    fn gaussian_noise_variance_is_d_s_squared() {
        let mech = GaussianMechanism::with_sigma(0.5).unwrap();
        assert_eq!(mech.total_noise_variance(100), 25.0);
        assert_eq!(mech.per_coordinate_std(), 0.5);
        assert_eq!(mech.name(), "gaussian");
    }

    #[test]
    fn gaussian_perturb_empirical_std() {
        let mech = GaussianMechanism::with_sigma(0.3).unwrap();
        let mut rng = Prng::seed_from_u64(1);
        let zero = Vector::zeros(1);
        let mut w = Welford::new();
        for _ in 0..30_000 {
            w.push(mech.perturb(&zero, &mut rng)[0]);
        }
        assert!(w.mean().abs() < 0.01, "mean {}", w.mean());
        assert!(
            (w.sample_std() - 0.3).abs() < 0.01,
            "std {}",
            w.sample_std()
        );
    }

    #[test]
    fn gaussian_perturb_in_place_is_g_plus_normal_vector_bitwise() {
        let mech = GaussianMechanism::with_sigma(0.4).unwrap();
        let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Around the 64-coordinate noise chunk, the paper's d = 69 and a
        // large d; the signed zeros check that the noise is added, not
        // written.
        for dim in [0, 1, 63, 64, 65, 69, 10_000] {
            let mut g = Prng::seed_from_u64(dim as u64).normal_vector(dim, 1.0);
            if dim > 1 {
                g[0] = -0.0;
                g[1] = 0.0;
            }
            let mut rng_ref = Prng::seed_from_u64(77);
            let expected = &g + &rng_ref.normal_vector(dim, mech.sigma());
            let mut rng = Prng::seed_from_u64(77);
            let mut noisy = g.clone();
            mech.perturb_in_place(&mut noisy, &mut rng);
            assert_eq!(bits(&noisy), bits(&expected), "dim {dim}");
            assert_eq!(rng.uniform().to_bits(), rng_ref.uniform().to_bits());
        }
    }

    #[test]
    fn gaussian_perturb_preserves_signal() {
        let mech = GaussianMechanism::with_sigma(0.01).unwrap();
        let mut rng = Prng::seed_from_u64(2);
        let g = Vector::from(vec![5.0, -5.0]);
        let noisy = mech.perturb(&g, &mut rng);
        assert!(noisy.l2_distance(&g) < 0.2);
    }

    #[test]
    fn laplace_scale_and_variance() {
        let mech = LaplaceMechanism::calibrate(0.5, 2.0).unwrap();
        assert_eq!(mech.scale(), 4.0);
        // Var per coordinate = 2·scale² = 32; total over 3 dims = 96.
        assert!((mech.total_noise_variance(3) - 96.0).abs() < 1e-12);
        assert_eq!(mech.name(), "laplace");
    }

    #[test]
    fn laplace_for_gradients_carries_sqrt_d() {
        let m4 = LaplaceMechanism::for_clipped_gradients(0.2, 0.01, 50, 4).unwrap();
        let m16 = LaplaceMechanism::for_clipped_gradients(0.2, 0.01, 50, 16).unwrap();
        assert!((m16.scale() / m4.scale() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn laplace_empirical_variance() {
        let mech = LaplaceMechanism::calibrate(1.0, 1.0).unwrap();
        let mut rng = Prng::seed_from_u64(3);
        let zero = Vector::zeros(1);
        let mut w = Welford::new();
        for _ in 0..40_000 {
            w.push(mech.perturb(&zero, &mut rng)[0]);
        }
        // Var = 2·1² = 2.
        assert!(
            (w.sample_variance() - 2.0).abs() < 0.1,
            "var {}",
            w.sample_variance()
        );
    }

    #[test]
    fn no_noise_is_identity() {
        let mech = NoNoise;
        let mut rng = Prng::seed_from_u64(4);
        let g = Vector::from(vec![1.0, 2.0]);
        assert_eq!(mech.perturb(&g, &mut rng), g);
        assert_eq!(mech.total_noise_variance(10), 0.0);
        assert_eq!(mech.per_coordinate_std(), 0.0);
        assert_eq!(mech.name(), "none");
    }

    #[test]
    fn perturb_in_place_matches_perturb_bitwise() {
        let mechs: Vec<Box<dyn Mechanism>> = vec![
            Box::new(NoNoise),
            Box::new(GaussianMechanism::with_sigma(0.7).unwrap()),
            Box::new(LaplaceMechanism::calibrate(0.5, 1.0).unwrap()),
        ];
        for m in &mechs {
            let g = Vector::from(vec![1.0, -2.5, 0.25, 1e6]);
            let allocating = m.perturb(&g, &mut Prng::seed_from_u64(9));
            let mut in_place = g.clone();
            let mut rng = Prng::seed_from_u64(9);
            m.perturb_in_place(&mut in_place, &mut rng);
            for (a, b) in allocating.iter().zip(in_place.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{} diverged", m.name());
            }
            // The in-place path must consume the RNG stream identically.
            let mut rng2 = Prng::seed_from_u64(9);
            let _ = m.perturb(&g, &mut rng2);
            assert_eq!(rng.uniform().to_bits(), rng2.uniform().to_bits());
        }
    }

    #[test]
    fn mechanisms_are_object_safe() {
        let mechs: Vec<Box<dyn Mechanism>> = vec![
            Box::new(NoNoise),
            Box::new(GaussianMechanism::with_sigma(0.1).unwrap()),
            Box::new(LaplaceMechanism::calibrate(0.5, 1.0).unwrap()),
        ];
        let mut rng = Prng::seed_from_u64(5);
        let g = Vector::zeros(3);
        for m in &mechs {
            assert_eq!(m.perturb(&g, &mut rng).dim(), 3);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// `perturb_in_place` against the reference formulas
            /// `g + normal_vector` (Gaussian) and `g + laplace_vector`
            /// (Laplace), bit for bit and RNG stream included.
            #[test]
            fn prop_perturb_in_place_matches_reference_formulas(seed in 0u64..500, dim in 1usize..48) {
                let g = Prng::seed_from_u64(seed).normal_vector(dim, 2.0);
                let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let gaussian = GaussianMechanism::with_sigma(0.3).unwrap();
                let laplace = LaplaceMechanism::calibrate(0.7, 1.0).unwrap();
                let mut rng_ref = Prng::seed_from_u64(seed ^ 0xABCD);
                let gaussian_ref = &g + &rng_ref.normal_vector(dim, gaussian.sigma());
                let laplace_ref = &g + &rng_ref.laplace_vector(dim, laplace.scale());

                let mut rng = Prng::seed_from_u64(seed ^ 0xABCD);
                let mut noisy = g.clone();
                gaussian.perturb_in_place(&mut noisy, &mut rng);
                prop_assert_eq!(bits(&noisy), bits(&gaussian_ref));
                let mut noisy = g.clone();
                laplace.perturb_in_place(&mut noisy, &mut rng);
                prop_assert_eq!(bits(&noisy), bits(&laplace_ref));
                prop_assert_eq!(rng.uniform().to_bits(), rng_ref.uniform().to_bits());
            }

            #[test]
            fn prop_sigma_monotone_in_epsilon(
                e1 in 0.01..0.99f64,
                e2 in 0.01..0.99f64,
                d in 1e-9..1e-3f64,
            ) {
                let (lo, hi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
                let tight = GaussianMechanism::calibrate(
                    PrivacyBudget::new(lo, d).unwrap(), 1.0).unwrap();
                let loose = GaussianMechanism::calibrate(
                    PrivacyBudget::new(hi, d).unwrap(), 1.0).unwrap();
                // More privacy (smaller ε) never means less noise.
                prop_assert!(tight.sigma() >= loose.sigma());
            }

            #[test]
            fn prop_sigma_monotone_in_delta(
                e in 0.01..0.99f64,
                d1 in 1e-12..0.9f64,
                d2 in 1e-12..0.9f64,
            ) {
                let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
                let strict = GaussianMechanism::calibrate(
                    PrivacyBudget::new(e, lo).unwrap(), 1.0).unwrap();
                let lax = GaussianMechanism::calibrate(
                    PrivacyBudget::new(e, hi).unwrap(), 1.0).unwrap();
                prop_assert!(strict.sigma() >= lax.sigma());
            }

            #[test]
            fn prop_sigma_linear_in_sensitivity(
                e in 0.01..0.99f64,
                s in 0.001..100.0f64,
            ) {
                let b = PrivacyBudget::new(e, 1e-6).unwrap();
                let one = GaussianMechanism::calibrate(b, 1.0).unwrap();
                let scaled = GaussianMechanism::calibrate(b, s).unwrap();
                prop_assert!((scaled.sigma() / one.sigma() - s).abs() < 1e-9 * s.max(1.0));
            }

            #[test]
            fn prop_laplace_variance_formula(scale in 0.01..100.0f64, dim in 1usize..256) {
                let m = LaplaceMechanism { scale };
                let total = m.total_noise_variance(dim);
                prop_assert!((total - dim as f64 * 2.0 * scale * scale).abs() < 1e-6 * total);
            }
        }
    }

    #[test]
    fn sigma_scaling_in_batch_and_epsilon() {
        // s ∝ 1/(b·ε): doubling either halves the noise.
        let b = paper_budget();
        let base = GaussianMechanism::for_clipped_gradients(b, 0.01, 50).unwrap();
        let big_batch = GaussianMechanism::for_clipped_gradients(b, 0.01, 100).unwrap();
        assert!((base.sigma() / big_batch.sigma() - 2.0).abs() < 1e-12);

        let loose = PrivacyBudget::new(0.4, 1e-6).unwrap();
        let loose_mech = GaussianMechanism::for_clipped_gradients(loose, 0.01, 50).unwrap();
        assert!((base.sigma() / loose_mech.sigma() - 2.0).abs() < 1e-12);
    }
}
