//! Bucketing (Karimireddy, He, Jaggi — ICLR 2022): a meta-rule that
//! averages fixed-size buckets of submissions before handing the bucket
//! means to an inner aggregation rule.
//!
//! Averaging `s` gradients per bucket divides the heterogeneity
//! (inter-worker variance) of the inner rule's input by `s`, which is
//! what lets selection-style rules work on non-i.i.d. data — at the price
//! of a tighter Byzantine tolerance: the inner rule sees only `⌈n/s⌉`
//! inputs, of which up to `f` may be contaminated (one Byzantine poisons
//! its whole bucket).

use crate::{check_input, Gar, GarError, GarScratch};
use dpbyz_tensor::Vector;
use std::sync::Arc;

/// Bucketing meta-aggregation: bucket means fed to an inner GAR.
///
/// The original formulation shuffles submissions before bucketing; this
/// implementation buckets **contiguously in submission order** so the
/// rule stays a deterministic pure function of its input (the trait
/// contract — GARs carry no RNG). Submission order in the round engine is
/// honest workers first, then the `f` forged copies, so the Byzantine
/// block lands in the trailing `⌈f/s⌉ (+1)` buckets; the inner rule is
/// nevertheless invoked with the order-agnostic worst case `f' = min(f,
/// ⌈n/s⌉)` contaminated inputs.
///
/// # Example
///
/// ```
/// use dpbyz_gars::{Bucketing, CoordinateMedian, Gar};
/// use dpbyz_tensor::Vector;
/// use std::sync::Arc;
///
/// let rule = Bucketing::new(Arc::new(CoordinateMedian::new()), 2);
/// let grads: Vec<Vector> = (0..6).map(|i| Vector::from(vec![i as f64])).collect();
/// // Buckets (0,1), (2,3), (4,5) → means 0.5, 2.5, 4.5 → median 2.5.
/// let out = rule.aggregate(&grads, 1).unwrap();
/// assert_eq!(out[0], 2.5);
/// ```
#[derive(Clone)]
pub struct Bucketing {
    inner: Arc<dyn Gar>,
    s: usize,
}

impl Bucketing {
    /// Creates the meta-rule: buckets of `s` submissions averaged, bucket
    /// means aggregated by `inner`. `s = 1` is the identity wrapper (the
    /// inner rule sees the raw submissions).
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero.
    pub fn new(inner: Arc<dyn Gar>, s: usize) -> Self {
        assert!(s > 0, "bucket size must be at least 1");
        Bucketing { inner, s }
    }

    /// The inner aggregation rule.
    pub fn inner(&self) -> &Arc<dyn Gar> {
        &self.inner
    }

    /// Number of buckets for `n` submissions.
    fn n_buckets(&self, n: usize) -> usize {
        n.div_ceil(self.s)
    }
}

impl std::fmt::Debug for Bucketing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bucketing")
            .field("inner", &self.inner.name())
            .field("s", &self.s)
            .finish()
    }
}

impl Gar for Bucketing {
    fn name(&self) -> &'static str {
        "bucketing"
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
        let b = self.n_buckets(n);
        // Every Byzantine submission contaminates at most its own bucket.
        let f_inner = f.min(b);

        // Bucket means into reused vectors (the tail of `buckets` beyond
        // `b` is dormant capacity from larger past topologies).
        if scratch.buckets.len() < b {
            scratch.buckets.resize_with(b, Vector::default);
        }
        for (i, bucket) in scratch.buckets.iter_mut().take(b).enumerate() {
            let chunk = &gradients[i * self.s..((i + 1) * self.s).min(n)];
            // lint:allow(panic-unwrap, reason = "chunks(s) with s >= 1 never yields an empty chunk")
            Vector::mean_into(chunk, bucket).expect("validated non-empty chunk");
        }

        let result = scratch.lend_nested(|own, nested| {
            self.inner
                .aggregate_into(&own.buckets[..b], f_inner, nested, out)
        });
        // The inner rule reports the *bucketed* topology; re-state an
        // over-tolerance error in the caller's terms (n submissions, the
        // composed rule's own maximum) so direct Gar-level callers aren't
        // told they submitted ⌈n/s⌉ gradients.
        result.map_err(|e| match e {
            GarError::TooManyByzantine { .. } => GarError::TooManyByzantine {
                n,
                f,
                max: self.max_byzantine(n),
            },
            other => other,
        })
        // lint:end(zero-copy)
    }

    fn kappa(&self, n: usize, f: usize) -> Option<f64> {
        // The composed rule inherits whatever bound the inner rule has at
        // the bucketed topology (⌈n/s⌉ inputs, f of them contaminated).
        self.inner.kappa(self.n_buckets(n), f)
    }

    fn max_byzantine(&self, n: usize) -> usize {
        self.inner.max_byzantine(self.n_buckets(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoordinateMedian, Krum};
    use dpbyz_tensor::Prng;
    use proptest::prelude::*;

    fn median_bucketing(s: usize) -> Bucketing {
        Bucketing::new(Arc::new(CoordinateMedian::new()), s)
    }

    #[test]
    fn bucket_size_one_is_the_inner_rule() {
        let mut rng = Prng::seed_from_u64(1);
        let grads: Vec<Vector> = (0..9).map(|_| rng.normal_vector(4, 1.0)).collect();
        let wrapped = median_bucketing(1).aggregate(&grads, 3).unwrap();
        let bare = CoordinateMedian::new().aggregate(&grads, 3).unwrap();
        for (a, b) in wrapped.iter().zip(bare.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn ragged_final_bucket_is_averaged_over_its_members() {
        // 5 submissions, s = 2: buckets (0,1), (2,3), (4).
        let grads: Vec<Vector> = (0..5).map(|i| Vector::from(vec![i as f64])).collect();
        let out = median_bucketing(2).aggregate(&grads, 1).unwrap();
        // Bucket means 0.5, 2.5, 4.0 → median 2.5.
        assert_eq!(out[0], 2.5);
    }

    #[test]
    fn variance_reduction_protects_selection_rules() {
        // A trailing Byzantine block at 1e6: after bucketing, the
        // contaminated bucket means are still enormous, and median-of-
        // buckets rejects them.
        let mut rng = Prng::seed_from_u64(2);
        let mut grads: Vec<Vector> = (0..8).map(|_| rng.normal_vector(3, 0.1)).collect();
        for _ in 0..2 {
            grads.push(Vector::filled(3, 1e6));
        }
        let out = median_bucketing(2).aggregate(&grads, 2).unwrap();
        assert!(out.l2_norm() < 5.0, "hijacked: {}", out.l2_norm());
    }

    #[test]
    fn tolerance_is_the_inner_rule_at_bucketed_topology() {
        // n = 11, s = 2 → 6 buckets; median tolerates (6−1)/2 = 2 there.
        assert_eq!(median_bucketing(2).max_byzantine(11), 2);
        // Krum needs ⌈n/s⌉ ≥ 2f + 3.
        let krum_b = Bucketing::new(Arc::new(Krum::new()), 2);
        assert_eq!(krum_b.max_byzantine(11), 1);
        // f beyond the bucketed tolerance is rejected at aggregation
        // time, with the error stated in the CALLER's topology (11
        // submissions, composed max 2) — not the inner rule's 6 buckets.
        let grads = vec![Vector::zeros(2); 11];
        match median_bucketing(2).aggregate(&grads, 3) {
            Err(GarError::TooManyByzantine { n, f, max }) => {
                assert_eq!((n, f, max), (11, 3, 2));
            }
            other => panic!("expected TooManyByzantine, got {other:?}"),
        }
        assert!(median_bucketing(2).aggregate(&grads, 2).is_ok());
    }

    #[test]
    fn kappa_delegates_to_inner_at_bucketed_topology() {
        let rule = median_bucketing(2);
        // median's κ at (6, 2) is 1/√(6−2) = 0.5.
        assert!((rule.kappa(11, 2).unwrap() - 0.5).abs() < 1e-12);
        assert!(rule.kappa(11, 3).is_none());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_bucket_size_rejected() {
        let _ = Bucketing::new(Arc::new(CoordinateMedian::new()), 0);
    }

    /// Naive reference: chunk, collect the allocating per-bucket means,
    /// call the inner rule's allocating `aggregate` — written without the
    /// scratch machinery.
    fn reference(
        gradients: &[Vector],
        s: usize,
        f: usize,
        inner: &dyn Gar,
    ) -> Result<Vector, GarError> {
        let means: Vec<Vector> = gradients
            .chunks(s)
            .map(|c| Vector::mean(c).unwrap())
            .collect();
        inner.aggregate(&means, f.min(means.len()))
    }

    proptest! {
        #[test]
        fn prop_hot_path_matches_reference_bitwise(
            seed in 0u64..300,
            s in 1usize..4,
            n in 7usize..12,
        ) {
            let mut rng = Prng::seed_from_u64(seed);
            let grads: Vec<Vector> = (0..n).map(|_| rng.normal_vector(5, 1.0)).collect();
            let inner = CoordinateMedian::new();
            let rule = Bucketing::new(Arc::new(inner), s);
            let f = rule.max_byzantine(n);
            let expected = reference(&grads, s, f, &inner).unwrap();
            // Dirty reused scratch with stale oversized bucket storage.
            let mut scratch = GarScratch::new();
            scratch.buckets.resize_with(16, || Vector::from(vec![9.0; 3]));
            let mut out = Vector::from(vec![4.0; 2]);
            rule.aggregate_into(&grads, f, &mut scratch, &mut out).unwrap();
            prop_assert_eq!(out.dim(), expected.dim());
            for (a, b) in out.iter().zip(expected.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
