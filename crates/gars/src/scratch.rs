//! Reusable scratch state for allocation-free aggregation
//! ([`Gar::aggregate_into`](crate::Gar::aggregate_into)).
//!
//! One [`GarScratch`] lives in the server's round buffers and is handed to
//! the GAR every step. After the first round its internal buffers are
//! warmed to the topology's sizes and aggregation performs no further heap
//! allocation. The centrepiece is a flat symmetric squared-distance matrix
//! shared by the Krum family (Krum, Multi-Krum, Bulyan) and MDA — the
//! O(n²·d) part of their cost is computed once per call into reused
//! storage instead of a fresh `Vec<Vec<f64>>` per round.

use crate::compute::ComputePool;
use crate::GarError;
use dpbyz_tensor::{kernels, stats, Vector};

/// Dimension at which the distance-matrix fill switches to the cache-tiled
/// kernel ([`kernels::pairwise_squared_distances_tiled`]). The tiled fill
/// is bit-identical to the untiled one at every dimension, so this is a
/// pure performance knob: below it the whole cohort fits in cache and
/// tiling only adds pass overhead; above it the rows stream through cache
/// once per tile instead of once per pair.
const TILED_MIN_DIM: usize = 8192;

/// Scratch buffers for [`Gar::aggregate_into`](crate::Gar::aggregate_into).
///
/// The built-in rules' private workspace: every buffer is crate-private,
/// so an out-of-tree GAR keeps its own state and only passes the scratch
/// through to any built-in rule it wraps.
#[derive(Debug, Default)]
pub struct GarScratch {
    /// Flat `m × m` symmetric squared-distance matrix over the current
    /// member set (`m = active.len()` for subset-iterating rules).
    pub(crate) dist2: Vec<f64>,
    /// Krum scores aligned with `active`; MDA's prefix-diameter stack.
    pub(crate) scores: Vec<f64>,
    /// Per-pair lane accumulators for the cache-tiled distance fill.
    pub(crate) pair_acc: Vec<[f64; kernels::LANES]>,
    /// Intra-round parallel executor for the sharded per-coordinate
    /// statistics. Size 1 — the default — is the serial path and never
    /// spawns a thread.
    pub(crate) pool: ComputePool,
    /// Indices of the gradients currently in play (the full set for Krum,
    /// the shrinking pool for Bulyan's iterated selection).
    pub(crate) active: Vec<usize>,
    /// Indices selected so far (Bulyan stage 1), in selection order.
    pub(crate) selected: Vec<usize>,
    /// Index-ordering buffer (Multi-Krum ranking, MDA greedy anchors).
    pub(crate) order: Vec<usize>,
    /// Subset prefix for MDA's exact subset search.
    pub(crate) combo: Vec<usize>,
    /// One coordinate column across the member gradients.
    pub(crate) col: Vec<f64>,
    /// Sorting scratch for the scalar statistics (median, trimmed mean,
    /// mean-around).
    pub(crate) sort_buf: Vec<f64>,
    /// General vector scratch (candidate subset means, Weiszfeld iterate,
    /// centered clipping's accumulated update).
    pub(crate) vec_a: Vector,
    /// Per-bucket means for the bucketing meta-rule (only the first
    /// `⌈n/s⌉` entries are live in any call).
    pub(crate) buckets: Vec<Vector>,
    /// Nested scratch handed to a meta-rule's inner GAR (boxed so the
    /// recursive type has a fixed size; allocated once, reused forever).
    pub(crate) nested: Option<Box<GarScratch>>,
}

impl GarScratch {
    /// An empty scratch; buffers grow to the topology's sizes on first use
    /// and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the intra-round aggregation parallelism used by the sharded
    /// GAR paths (coordinate statistics). Clamped to ≥ 1;
    /// size 1 — the default — is the serial path and never spawns a
    /// thread. The parallel result is bit-identical to serial at any
    /// size, so this is a pure throughput knob.
    pub fn set_parallelism(&mut self, threads: usize) {
        self.pool.set_size(threads);
    }

    /// Lends the nested scratch (allocated once, put back afterwards) to a
    /// meta-rule's inner GAR: `call` gets this scratch read-only, so its
    /// buffers can be the inner rule's input, and the nested one mutably.
    pub(crate) fn lend_nested<R>(&mut self, call: impl FnOnce(&Self, &mut Self) -> R) -> R {
        let mut nested = self.nested.take().unwrap_or_default();
        let result = call(self, &mut nested);
        self.nested = Some(nested);
        result
    }

    /// Fills `active` with the identity member set `0..n`.
    pub(crate) fn set_active_full(&mut self, n: usize) {
        self.active.clear();
        self.active.extend(0..n);
    }

    /// Fills the flat symmetric squared-distance matrix over the gradients
    /// listed in `active` — one batched all-pairs call into the tensor
    /// layer's blocked distance kernel, reusing the flat storage across
    /// rounds. Large dimensions take the cache-tiled fill
    /// ([`kernels::pairwise_squared_distances_tiled`]), which is
    /// bit-identical to the untiled kernel
    /// ([`kernels::pairwise_squared_distances`]) but streams the rows
    /// through cache once per coordinate tile instead of once per pair.
    pub(crate) fn fill_dist2_active(&mut self, gradients: &[Vector]) {
        let dim = gradients.first().map_or(0, Vector::dim);
        if dim >= TILED_MIN_DIM {
            kernels::pairwise_squared_distances_tiled(
                gradients,
                &self.active,
                &mut self.dist2,
                &mut self.pair_acc,
            );
        } else {
            kernels::pairwise_squared_distances(gradients, &self.active, &mut self.dist2);
        }
    }

    /// Computes the Krum score of every member in `active` (sum of squared
    /// distances to its `m − f − 2` nearest co-members), leaving the
    /// scores in `self.scores` aligned with `active`. Scoring is
    /// O(m² log m) whatever the dimension, so it runs serially on the
    /// calling thread: each member's neighbour distances are packed in
    /// co-member order and reduced by the sorted-prefix sum of
    /// [`krum_score`].
    pub(crate) fn compute_krum_scores(
        &mut self,
        gradients: &[Vector],
        f: usize,
    ) -> Result<(), GarError> {
        self.fill_dist2_active(gradients);
        let m = self.active.len();
        let k = m - f - 2;
        self.scores.clear();
        for a in 0..m {
            self.sort_buf.clear();
            let row = &self.dist2[a * m..(a + 1) * m];
            self.sort_buf.extend(
                row.iter()
                    .enumerate()
                    .filter(|&(b, _)| b != a)
                    .map(|(_, &d)| d),
            );
            self.scores.push(krum_score(&mut self.sort_buf, k)?);
        }
        Ok(())
    }

    /// Krum scores for a *shrinking* pool over a pre-filled matrix: the
    /// distance matrix was filled once over all `n` original indices
    /// (`active` = identity at fill time, stride `n`), and members are
    /// looked up by their original index. Pairwise distances never change
    /// as a pool shrinks, so Bulyan's θ selection iterations share one
    /// O(n²·d) fill instead of recomputing it every round — bitwise the
    /// same scores as re-filling per round: the same distance values feed
    /// the same sorted prefix sums.
    pub(crate) fn compute_krum_scores_prefilled(
        &mut self,
        n: usize,
        f: usize,
    ) -> Result<(), GarError> {
        let m = self.active.len();
        let k = m - f - 2;
        self.scores.clear();
        for (pos_a, &member_a) in self.active.iter().enumerate() {
            self.sort_buf.clear();
            let row = &self.dist2[member_a * n..(member_a + 1) * n];
            self.sort_buf.extend(
                self.active
                    .iter()
                    .enumerate()
                    .filter(|&(pos_b, _)| pos_b != pos_a)
                    .map(|(_, &member_b)| row[member_b]),
            );
            self.scores.push(krum_score(&mut self.sort_buf, k)?);
        }
        Ok(())
    }
}

/// One member's Krum score: the sum of the `k` smallest of its neighbour
/// distances (sorted in place).
///
/// # Errors
///
/// [`GarError::NaN`] if a distance is NaN (a diverged gradient).
fn krum_score(neighbours: &mut [f64], k: usize) -> Result<f64, GarError> {
    let mut nan = false;
    neighbours.sort_unstable_by(|&x, &y| stats::cmp_flagging_nan(x, y, &mut nan));
    if nan {
        return Err(GarError::NaN);
    }
    Ok(neighbours[..k].iter().sum())
}

/// Writes the mean of `gradients[indices]` into `out` without cloning any
/// member — bit-identical to collecting the subset and calling
/// [`Vector::mean`] (same accumulation order, same scaling).
pub(crate) fn mean_indexed_into(gradients: &[Vector], indices: &[usize], out: &mut Vector) {
    let dim = gradients[indices[0]].dim();
    out.resize(dim, 0.0);
    out.fill(0.0);
    for &i in indices {
        out.axpy(1.0, &gradients[i]);
    }
    out.scale(1.0 / indices.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbyz_tensor::Prng;

    #[test]
    fn mean_indexed_matches_subset_mean_bitwise() {
        let mut rng = Prng::seed_from_u64(3);
        let grads: Vec<Vector> = (0..8).map(|_| rng.normal_vector(5, 1.0)).collect();
        let indices = [6usize, 1, 3];
        let subset: Vec<Vector> = indices.iter().map(|&i| grads[i].clone()).collect();
        let expected = Vector::mean(&subset).unwrap();
        let mut out = Vector::from(vec![1.0; 2]); // dirty, wrong dim
        mean_indexed_into(&grads, &indices, &mut out);
        for (a, b) in expected.iter().zip(out.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn krum_scores_over_active_subset() {
        // Cluster at 0 plus an outlier: the outlier's score dominates.
        let mut grads: Vec<Vector> = (0..6)
            .map(|i| Vector::from(vec![i as f64 * 0.01]))
            .collect();
        grads.push(Vector::from(vec![100.0]));
        let mut s = GarScratch::new();
        s.set_active_full(grads.len());
        s.compute_krum_scores(&grads, 2).unwrap();
        let outlier = *s.scores.last().unwrap();
        assert!(s.scores[..6].iter().all(|&x| x < outlier));
    }
}
