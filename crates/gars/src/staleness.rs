//! Staleness-damped meta-aggregation: per-submission age weights folded
//! into any inner rule.
//!
//! Under bounded-staleness rounds (`TrainingConfig.staleness_window > 0`
//! in `dpbyz-server`) a straggler's gradient from `j` rounds ago is
//! admitted instead of zeroed. A gradient computed against `j`-step-old
//! parameters points in a systematically outdated direction, so before
//! the inner rule sees it, this wrapper scales submission `i` by
//! `λ^age[i]` — full weight for fresh work, geometrically discounted
//! weight for late work, never a hard drop. With every age zero (or no
//! ages recorded) the wrapper is the identity around its inner rule, bit
//! for bit — the synchronous digests are unchanged by wrapping.
//!
//! Ages travel through the [`GarScratch`] extension
//! ([`GarScratch::set_submission_ages`]) rather than the `Gar` call
//! signature, so the meta-rule composes with every registered rule and
//! the zero-copy `aggregate_into` path unchanged.

use crate::{check_input, Gar, GarError, GarScratch};
use dpbyz_tensor::Vector;
use std::sync::Arc;

/// Staleness-damped meta-aggregation: submissions scaled by `λ^age`
/// before the inner GAR aggregates them.
///
/// # Example
///
/// ```
/// use dpbyz_gars::{Gar, GarScratch, StalenessDamped, Average};
/// use dpbyz_tensor::Vector;
/// use std::sync::Arc;
///
/// let rule = StalenessDamped::new(Arc::new(Average::new()), 0.5);
/// let grads = vec![Vector::from(vec![2.0]), Vector::from(vec![2.0])];
/// let mut scratch = GarScratch::new();
/// let mut out = Vector::default();
/// // Second submission is one round late: weighted 0.5.
/// scratch.set_submission_ages(&[0, 1]);
/// rule.aggregate_into(&grads, 0, &mut scratch, &mut out).unwrap();
/// assert_eq!(out[0], 1.5); // mean of 2.0 and 1.0
/// ```
#[derive(Clone)]
pub struct StalenessDamped {
    inner: Arc<dyn Gar>,
    lambda: f64,
}

impl StalenessDamped {
    /// Creates the meta-rule: submissions damped by `lambda^age`, then
    /// aggregated by `inner`. `lambda = 1` keeps late submissions at full
    /// weight (the wrapper is then always the identity).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lambda <= 1` (a weight above 1 would *amplify*
    /// stale work; 0 would re-introduce the hard drop this rule exists to
    /// avoid).
    pub fn new(inner: Arc<dyn Gar>, lambda: f64) -> Self {
        assert!(
            lambda > 0.0 && lambda <= 1.0,
            "staleness damping must be in (0, 1], got {lambda}"
        );
        StalenessDamped { inner, lambda }
    }

    /// The inner aggregation rule.
    pub fn inner(&self) -> &Arc<dyn Gar> {
        &self.inner
    }

    /// The per-round damping factor `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl std::fmt::Debug for StalenessDamped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StalenessDamped")
            .field("inner", &self.inner.name())
            .field("lambda", &self.lambda)
            .finish()
    }
}

impl Gar for StalenessDamped {
    fn name(&self) -> &'static str {
        "staleness-damped"
    }

    fn aggregate_into(
        &self,
        gradients: &[Vector],
        f: usize,
        scratch: &mut GarScratch,
        out: &mut Vector,
    ) -> Result<(), GarError> {
        // lint:begin(zero-copy)
        check_input(gradients)?;
        let n = gradients.len();
        // All-fresh rounds (k = 0 deployments, an unexercised window, or
        // the provided `aggregate`, whose fresh scratch records no ages)
        // hand the inner rule the submissions as they are: no copy, no
        // float op, bit-identical to the bare inner rule.
        let damped_any = scratch
            .ages
            .iter()
            .take(n)
            .any(|&age| age > 0 && self.lambda < 1.0);
        if damped_any {
            // Damped copies into reused vectors (the tail of `weighted`
            // beyond `n` is dormant capacity from larger past topologies).
            if scratch.weighted.len() < n {
                scratch.weighted.resize_with(n, Vector::default);
            }
            for (i, (slot, grad)) in scratch.weighted.iter_mut().zip(gradients).enumerate() {
                slot.copy_from(grad);
                let age = scratch.ages.get(i).copied().unwrap_or(0);
                if age > 0 {
                    slot.scale(self.lambda.powi(age.min(i32::MAX as u32) as i32));
                }
            }
        }
        scratch.lend_nested(|own, nested| {
            let inputs = if damped_any {
                &own.weighted[..n]
            } else {
                gradients
            };
            self.inner.aggregate_into(inputs, f, nested, out)
        })
        // lint:end(zero-copy)
    }

    fn kappa(&self, n: usize, f: usize) -> Option<f64> {
        // Damping rescales individual submissions; the inner rule's
        // tolerance and VN bound at the same (n, f) are the best published
        // statement available for the composed rule.
        self.inner.kappa(n, f)
    }

    fn max_byzantine(&self, n: usize) -> usize {
        self.inner.max_byzantine(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Average, CoordinateMedian, Mda};
    use dpbyz_tensor::Prng;
    use proptest::prelude::*;

    fn damped_median(lambda: f64) -> StalenessDamped {
        StalenessDamped::new(Arc::new(CoordinateMedian::new()), lambda)
    }

    #[test]
    fn no_ages_is_the_inner_rule_bitwise() {
        let mut rng = Prng::seed_from_u64(1);
        let grads: Vec<Vector> = (0..9).map(|_| rng.normal_vector(4, 1.0)).collect();
        let mut scratch = GarScratch::new();
        let mut out = Vector::default();
        damped_median(0.5)
            .aggregate_into(&grads, 3, &mut scratch, &mut out)
            .unwrap();
        let bare = CoordinateMedian::new().aggregate(&grads, 3).unwrap();
        for (a, b) in out.iter().zip(bare.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn all_zero_ages_is_the_inner_rule_bitwise() {
        let mut rng = Prng::seed_from_u64(2);
        let grads: Vec<Vector> = (0..7).map(|_| rng.normal_vector(3, 1.0)).collect();
        let mut scratch = GarScratch::new();
        scratch.set_submission_ages(&[0; 7]);
        let mut out = Vector::default();
        damped_median(0.25)
            .aggregate_into(&grads, 2, &mut scratch, &mut out)
            .unwrap();
        let bare = CoordinateMedian::new().aggregate(&grads, 2).unwrap();
        for (a, b) in out.iter().zip(bare.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn lambda_one_never_copies_or_damps() {
        // λ = 1 is the identity even with nonzero ages: the fast path
        // must trigger (damping by 1.0 would still be bit-identical, but
        // the delegation path is the documented contract).
        let grads = vec![Vector::from(vec![3.0]), Vector::from(vec![5.0])];
        let mut scratch = GarScratch::new();
        scratch.set_submission_ages(&[2, 7]);
        let mut out = Vector::default();
        damped_median(1.0)
            .aggregate_into(&grads, 0, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out[0], 4.0);
    }

    #[test]
    fn ages_scale_geometrically() {
        let grads = vec![
            Vector::from(vec![8.0]),
            Vector::from(vec![8.0]),
            Vector::from(vec![8.0]),
        ];
        let rule = StalenessDamped::new(Arc::new(Average::new()), 0.5);
        let mut scratch = GarScratch::new();
        scratch.set_submission_ages(&[0, 1, 3]);
        let mut out = Vector::default();
        rule.aggregate_into(&grads, 0, &mut scratch, &mut out)
            .unwrap();
        // Weights 1, 0.5, 0.125 → mean of 8, 4, 1.
        assert_eq!(out[0], (8.0 + 4.0 + 1.0) / 3.0);
    }

    #[test]
    fn missing_trailing_ages_count_as_fresh() {
        let grads = vec![Vector::from(vec![2.0]), Vector::from(vec![4.0])];
        let rule = StalenessDamped::new(Arc::new(Average::new()), 0.5);
        let mut scratch = GarScratch::new();
        scratch.set_submission_ages(&[1]); // second submission unrecorded
        let mut out = Vector::default();
        rule.aggregate_into(&grads, 0, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out[0], (1.0 + 4.0) / 2.0);
    }

    #[test]
    fn tolerance_and_kappa_delegate() {
        let rule = StalenessDamped::new(Arc::new(Mda::new()), 0.5);
        let bare = Mda::new();
        assert_eq!(rule.max_byzantine(11), bare.max_byzantine(11));
        assert_eq!(rule.kappa(11, 5), bare.kappa(11, 5));
    }

    #[test]
    fn inner_errors_surface() {
        let grads = vec![Vector::zeros(2); 5];
        let rule = StalenessDamped::new(Arc::new(Mda::new()), 0.5);
        assert!(matches!(
            rule.aggregate(&grads, 3),
            Err(GarError::TooManyByzantine { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "in (0, 1]")]
    fn zero_lambda_rejected() {
        let _ = StalenessDamped::new(Arc::new(Average::new()), 0.0);
    }

    #[test]
    #[should_panic(expected = "in (0, 1]")]
    fn amplifying_lambda_rejected() {
        let _ = StalenessDamped::new(Arc::new(Average::new()), 1.5);
    }

    /// Naive reference: clone each submission, scale by λ^age, call the
    /// inner rule's allocating `aggregate` — written without the scratch
    /// machinery.
    fn reference(
        gradients: &[Vector],
        ages: &[u32],
        lambda: f64,
        f: usize,
        inner: &dyn Gar,
    ) -> Result<Vector, GarError> {
        let damped: Vec<Vector> = gradients
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let mut v = g.clone();
                v.scale(lambda.powi(ages.get(i).copied().unwrap_or(0) as i32));
                v
            })
            .collect();
        inner.aggregate(&damped, f)
    }

    proptest! {
        #[test]
        fn prop_hot_path_matches_reference_bitwise(
            seed in 0u64..300,
            n in 5usize..12,
            k in 1u32..4,
        ) {
            let mut rng = Prng::seed_from_u64(seed);
            let grads: Vec<Vector> = (0..n).map(|_| rng.normal_vector(5, 1.0)).collect();
            let ages: Vec<u32> = (0..n).map(|i| (seed as u32 + i as u32) % (k + 1)).collect();
            let inner = CoordinateMedian::new();
            let rule = StalenessDamped::new(Arc::new(inner), 0.5);
            let f = rule.max_byzantine(n);
            let expected = reference(&grads, &ages, 0.5, f, &inner).unwrap();
            // Dirty reused scratch with stale oversized weighted storage.
            let mut scratch = GarScratch::new();
            scratch.weighted.resize_with(16, || Vector::from(vec![9.0; 3]));
            scratch.set_submission_ages(&ages);
            let mut out = Vector::from(vec![4.0; 2]);
            rule.aggregate_into(&grads, f, &mut scratch, &mut out).unwrap();
            prop_assert_eq!(out.dim(), expected.dim());
            for (a, b) in out.iter().zip(expected.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
