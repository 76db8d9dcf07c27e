//! Byzantine-resilient gradient aggregation rules (GARs).
//!
//! The parameter server applies a GAR `F` to the `n` submitted gradients
//! each step (Eq. 1 / Eq. 9). This crate implements the statistically-robust
//! GARs the paper analyzes, each paired with its VN-ratio bound
//! `κ_F(n, f)` — the constant of Eq. 2 under which the GAR is certified
//! `(α, f)`-Byzantine resilient:
//!
//! | GAR | `κ_F(n, f)` | tolerance |
//! |-----|-------------|-----------|
//! | [`Mda`] | `(n−f) / (√8·f)` | `2f < n` |
//! | [`Krum`] / [`Bulyan`] | `1/√(2·η(n,f))` | `2f + 2 < n` (Bulyan: `4f + 3 ≤ n`) |
//! | [`CoordinateMedian`] | `1/√(n−f)` | `2f ≤ n−1` |
//! | [`Meamed`] | `1/√(10·(n−f))` | `2f ≤ n−1` |
//! | [`TrimmedMean`] | `√((n−2f)² / (2(f+1)(n−f)))` | `2f < n` |
//! | [`Phocas`] | `√(4 + (n−2f)²/(12(f+1)(n−f)))` | `2f < n` |
//!
//! with `η(n, f) = n − f + (f(n−f−2) + f²(n−f−1)) / (n−2f−2)`.
//!
//! [`Average`] (not Byzantine resilient — Blanchard et al. show no linear
//! rule is) is included as the honest-case baseline, and
//! [`GeometricMedian`] (no published κ in the paper's framework) as an
//! extension point beyond the paper's GAR set.
//!
//! # Example
//!
//! ```
//! use dpbyz_gars::{Gar, Mda};
//! use dpbyz_tensor::Vector;
//!
//! let grads = vec![
//!     Vector::from(vec![1.0, 0.0]),
//!     Vector::from(vec![1.1, 0.1]),
//!     Vector::from(vec![0.9, -0.1]),
//!     Vector::from(vec![100.0, 100.0]), // Byzantine
//! ];
//! let agg = Mda::new().aggregate(&grads, 1).unwrap();
//! assert!(agg.l2_norm() < 2.0); // the outlier was excluded
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod average;
mod bucketing;
mod bulyan;
mod centered_clipping;
mod compute;
mod error;
mod geometric_median;
mod krum;
mod mda;
mod meamed;
mod median;
mod phocas;
mod scratch;
mod trimmed_mean;
pub mod vn;

pub use average::Average;
pub use bucketing::Bucketing;
pub use bulyan::Bulyan;
pub use centered_clipping::CenteredClipping;
pub use error::GarError;
pub use geometric_median::GeometricMedian;
pub use krum::{Krum, MultiKrum};
pub use mda::Mda;
pub use meamed::Meamed;
pub use median::CoordinateMedian;
pub use phocas::Phocas;
pub use scratch::GarScratch;
pub use trimmed_mean::TrimmedMean;

use dpbyz_tensor::Vector;

/// A gradient aggregation rule.
///
/// Implementations are deterministic pure functions of the submitted
/// gradients (the paper's GARs are deterministic, §2.1).
pub trait Gar: Send + Sync {
    /// Rule name for reports.
    fn name(&self) -> &'static str;

    /// Aggregates `gradients`, assuming at most `f` of them are Byzantine,
    /// into a caller-provided output buffer, reusing `scratch` across
    /// calls — the zero-copy hot path the round engine drives every step.
    /// The result must not depend on what `scratch` and `out` held before
    /// the call. Implementations may leave `out` at a different dimension
    /// on error.
    ///
    /// # Errors
    ///
    /// [`GarError::Empty`] for no gradients, [`GarError::DimensionMismatch`]
    /// for ragged input, [`GarError::TooManyByzantine`] if `f` exceeds the
    /// rule's tolerance for `n = gradients.len()`.
    fn aggregate_into(
        &self,
        gradients: &[Vector],
        f: usize,
        scratch: &mut GarScratch,
        out: &mut Vector,
    ) -> Result<(), GarError>;

    /// [`Gar::aggregate_into`] with a fresh output buffer and scratch.
    ///
    /// # Errors
    ///
    /// As [`Gar::aggregate_into`].
    fn aggregate(&self, gradients: &[Vector], f: usize) -> Result<Vector, GarError> {
        let mut out = Vector::default();
        self.aggregate_into(gradients, f, &mut GarScratch::new(), &mut out)?;
        Ok(out)
    }

    /// The VN-ratio bound `κ_F(n, f)` of Eq. 2, or `None` when the rule has
    /// no known bound for this `(n, f)` (e.g. `f` beyond tolerance, or
    /// plain averaging).
    fn kappa(&self, n: usize, f: usize) -> Option<f64>;

    /// The largest number of Byzantine workers tolerated among `n`.
    fn max_byzantine(&self, n: usize) -> usize;
}

/// Validates common input conditions; returns the dimension.
pub(crate) fn check_input(gradients: &[Vector]) -> Result<usize, GarError> {
    let first = gradients.first().ok_or(GarError::Empty)?;
    let dim = first.dim();
    if dim == 0 {
        return Err(GarError::Empty);
    }
    for g in gradients {
        if g.dim() != dim {
            return Err(GarError::DimensionMismatch {
                expected: dim,
                actual: g.dim(),
            });
        }
    }
    Ok(dim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbyz_tensor::Prng;
    use proptest::prelude::*;

    /// All robust GARs (excludes Average) with an (n, f) they tolerate.
    fn robust_cases() -> Vec<(Box<dyn Gar>, usize, usize)> {
        vec![
            (Box::new(Krum::new()), 11, 3),
            (Box::new(Mda::new()), 11, 5),
            (Box::new(CoordinateMedian::new()), 11, 5),
            (Box::new(TrimmedMean::new()), 11, 5),
            (Box::new(Meamed::new()), 11, 5),
            (Box::new(Phocas::new()), 11, 5),
            (Box::new(Bulyan::new()), 11, 2),
        ]
    }

    #[test]
    fn unanimous_input_is_fixed_point() {
        // If every worker submits the same vector, every GAR must return it.
        let g = Vector::from(vec![0.5, -1.5, 2.0]);
        for (gar, n, f) in robust_cases() {
            let grads = vec![g.clone(); n];
            let out = gar.aggregate(&grads, f).unwrap();
            assert!(
                out.approx_eq(&g, 1e-12),
                "{} broke unanimity: {:?}",
                gar.name(),
                out
            );
        }
    }

    #[test]
    fn outlier_resistance_of_all_robust_gars() {
        // f Byzantine gradients at 1e6 must not drag the output far from
        // the honest cluster around the origin.
        let mut rng = Prng::seed_from_u64(1);
        for (gar, n, f) in robust_cases() {
            let mut grads: Vec<Vector> = (0..n - f).map(|_| rng.normal_vector(4, 0.1)).collect();
            for _ in 0..f {
                grads.push(Vector::filled(4, 1e6));
            }
            let out = gar.aggregate(&grads, f).unwrap();
            assert!(
                out.l2_norm() < 10.0,
                "{} hijacked by outliers: ‖out‖ = {}",
                gar.name(),
                out.l2_norm()
            );
        }
    }

    #[test]
    fn average_is_hijacked_by_one_outlier() {
        // The contrast case: averaging is NOT robust (Blanchard et al.).
        let mut grads = vec![Vector::zeros(2); 10];
        grads.push(Vector::filled(2, 1e6));
        let out = Average::new().aggregate(&grads, 0).unwrap();
        assert!(out.l2_norm() > 1e4);
    }

    #[test]
    fn kappa_defined_and_positive_across_tolerance() {
        for (gar, n, _) in robust_cases() {
            for f in 1..=gar.max_byzantine(n) {
                let k = gar
                    .kappa(n, f)
                    .unwrap_or_else(|| panic!("{} has no kappa at f={f}", gar.name()));
                assert!(
                    k > 0.0 && k.is_finite(),
                    "{} kappa at f={f}: {k}",
                    gar.name()
                );
            }
        }
    }

    #[test]
    fn kappa_decreases_with_more_byzantine_for_subset_rules() {
        // For the subset-selection rules (MDA, Krum, Trimmed Mean, Phocas)
        // more Byzantine workers tighten the VN requirement. (Median and
        // Meamed have κ = c/√(n−f), which — per the published formulas —
        // *loosens* as f grows, so they are excluded here.)
        let cases: Vec<Box<dyn Gar>> = vec![
            Box::new(Mda::new()),
            Box::new(Krum::new()),
            Box::new(TrimmedMean::new()),
            Box::new(Phocas::new()),
        ];
        let n = 23;
        for gar in cases {
            let mut prev = f64::INFINITY;
            for f in 1..=gar.max_byzantine(n) {
                let k = gar.kappa(n, f).unwrap();
                assert!(
                    k <= prev + 1e-12,
                    "{}: kappa increased at f={f}: {k} > {prev}",
                    gar.name()
                );
                prev = k;
            }
        }
    }

    #[test]
    fn kappa_none_beyond_tolerance() {
        for (gar, n, _) in robust_cases() {
            let too_many = gar.max_byzantine(n) + 1;
            assert!(
                gar.kappa(n, too_many).is_none(),
                "{} returned kappa beyond tolerance",
                gar.name()
            );
        }
    }

    proptest! {
        #[test]
        fn prop_permutation_invariance(seed in 0u64..500) {
            // GARs must not depend on worker order.
            let mut rng = Prng::seed_from_u64(seed);
            let n = 11;
            let grads: Vec<Vector> = (0..n).map(|_| rng.normal_vector(3, 1.0)).collect();
            let mut shuffled = grads.clone();
            rng.shuffle(&mut shuffled);
            for (gar, _, f) in robust_cases() {
                let a = gar.aggregate(&grads, f).unwrap();
                let b = gar.aggregate(&shuffled, f).unwrap();
                prop_assert!(
                    a.approx_eq(&b, 1e-9),
                    "{} is order-dependent", gar.name()
                );
            }
        }

        #[test]
        fn prop_translation_equivariance(seed in 0u64..300) {
            // F(g₁+t, …, gₙ+t) = F(g₁, …, gₙ) + t for every rule here:
            // distances, medians, trimmed means and subset selections are
            // all translation-equivariant. An aggregation rule without
            // this property would treat the origin as special — a red
            // flag for any gradient method.
            let mut rng = Prng::seed_from_u64(seed);
            let n = 11;
            let grads: Vec<Vector> = (0..n).map(|_| rng.normal_vector(3, 1.0)).collect();
            let t = rng.normal_vector(3, 5.0);
            let shifted: Vec<Vector> = grads.iter().map(|g| g + &t).collect();
            for (gar, _, f) in robust_cases() {
                let base = gar.aggregate(&grads, f).unwrap();
                let moved = gar.aggregate(&shifted, f).unwrap();
                prop_assert!(
                    moved.approx_eq(&(&base + &t), 1e-7),
                    "{} is not translation-equivariant", gar.name()
                );
            }
        }

        #[test]
        fn prop_positive_scaling_equivariance(seed in 0u64..300, scale in 0.1..10.0f64) {
            // F(c·g₁, …, c·gₙ) = c·F(g₁, …, gₙ) for c > 0: rescaling the
            // learning problem must rescale the aggregate.
            let mut rng = Prng::seed_from_u64(seed);
            let n = 11;
            let grads: Vec<Vector> = (0..n).map(|_| rng.normal_vector(3, 1.0)).collect();
            let scaled: Vec<Vector> = grads.iter().map(|g| g.scaled(scale)).collect();
            for (gar, _, f) in robust_cases() {
                let base = gar.aggregate(&grads, f).unwrap();
                let out = gar.aggregate(&scaled, f).unwrap();
                prop_assert!(
                    out.approx_eq(&base.scaled(scale), 1e-6 * scale.max(1.0)),
                    "{} is not scaling-equivariant", gar.name()
                );
            }
        }

        #[test]
        fn prop_duplicated_honest_majority_wins(seed in 0u64..200) {
            // If n−f workers submit the *same* vector h and f submit the
            // same attack vector a, every robust rule must output
            // something much closer to h than to a.
            let mut rng = Prng::seed_from_u64(seed);
            let h = rng.normal_vector(3, 1.0);
            let a = &h + &rng.normal_vector(3, 50.0);
            for (gar, n, f) in robust_cases() {
                let mut grads = vec![h.clone(); n - f];
                grads.extend(std::iter::repeat_n(a.clone(), f));
                let out = gar.aggregate(&grads, f).unwrap();
                prop_assert!(
                    out.l2_distance(&h) <= out.l2_distance(&a),
                    "{} sided with the Byzantine bloc", gar.name()
                );
            }
        }

        #[test]
        fn prop_output_in_coordinate_envelope(seed in 0u64..500) {
            // For every GAR here, each output coordinate lies within the
            // [min, max] envelope of the submitted coordinates (true for
            // means, medians, trimmed means, selections, and averages of
            // subsets).
            let mut rng = Prng::seed_from_u64(seed);
            let n = 11;
            let grads: Vec<Vector> = (0..n).map(|_| rng.normal_vector(3, 1.0)).collect();
            for (gar, _, f) in robust_cases() {
                let out = gar.aggregate(&grads, f).unwrap();
                for j in 0..3 {
                    let lo = grads.iter().map(|g| g[j]).fold(f64::INFINITY, f64::min);
                    let hi = grads.iter().map(|g| g[j]).fold(f64::NEG_INFINITY, f64::max);
                    prop_assert!(
                        out[j] >= lo - 1e-9 && out[j] <= hi + 1e-9,
                        "{} left the envelope on coord {j}", gar.name()
                    );
                }
            }
        }
    }
}
