//! Bulyan (El Mhamdi et al., ICML 2018) — Krum selection followed by a
//! per-coordinate trimmed aggregation.

use crate::compute::{self, ShardOp};
use crate::krum::{canonical_argmin_indexed, eta};
use crate::{check_input, Gar, GarError, GarScratch};
use dpbyz_tensor::Vector;

/// Bulyan over Krum.
///
/// Stage 1 iteratively runs Krum to select `θ = n − 2f` gradients (each
/// round picks the best-scoring gradient and removes it). Stage 2, per
/// coordinate, averages the `β = θ − 2f` values closest to the coordinate
/// median of the selected set.
///
/// Requires `n ≥ 4f + 3`; VN bound shared with Krum, `κ = 1/√(2η(n, f))`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bulyan;

impl Bulyan {
    /// Creates the rule.
    pub fn new() -> Self {
        Bulyan
    }
}

fn check_tolerance(n: usize, f: usize) -> Result<(), GarError> {
    if f > 0 && n < 4 * f + 3 {
        return Err(GarError::TooManyByzantine {
            n,
            f,
            max: n.saturating_sub(3) / 4,
        });
    }
    Ok(())
}

impl Gar for Bulyan {
    fn name(&self) -> &'static str {
        "bulyan"
    }

    fn aggregate_into(
        &self,
        gradients: &[Vector],
        f: usize,
        scratch: &mut GarScratch,
        out: &mut Vector,
    ) -> Result<(), GarError> {
        // lint:begin(zero-copy)
        let dim = check_input(gradients)?;
        let n = gradients.len();
        check_tolerance(n, f)?;
        if f == 0 {
            return Vector::mean_into(gradients, out).map_err(|_| GarError::Empty);
        }

        // Stage 1: iterated Krum selection of θ = n − 2f gradients, by
        // *index* — the pool is a shrinking list of indices into
        // `gradients`, never a cloned vector set. Pairwise distances never
        // change as the pool shrinks, so the O(n²·d) matrix is filled once
        // and every selection round re-scores from it.
        let theta = n - 2 * f;
        scratch.set_active_full(n);
        scratch.fill_dist2_active(gradients);
        scratch.selected.clear();
        for _ in 0..theta {
            // Krum scoring needs a pool of ≥ f + 3 to have ≥1 neighbour;
            // n ≥ 4f + 3 guarantees it throughout the θ rounds.
            scratch.compute_krum_scores_prefilled(n, f)?;
            // Canonical tie-breaking keeps the selection independent of
            // submission order even at k = 1 neighbour, where mutual
            // nearest neighbours share a score by construction.
            let best = canonical_argmin_indexed(&scratch.scores, gradients, &scratch.active)?;
            let picked = scratch.active.swap_remove(best);
            scratch.selected.push(picked);
        }

        // Stage 2: per coordinate, mean of the β = θ − 2f values closest to
        // the median of the selected set. Columns are independent, so the
        // coordinate loop shards over the scratch's compute pool —
        // bit-identical to the serial loop at any pool size.
        let beta = theta - 2 * f;
        out.resize(dim, 0.0);
        let GarScratch {
            ref selected,
            ref mut pool,
            ref mut col,
            ref mut sort_buf,
            ..
        } = *scratch;
        compute::run_sharded(
            pool,
            col,
            sort_buf,
            ShardOp::MeanAroundMedian { keep: beta },
            dim,
            theta,
            &|range, values| {
                values.clear();
                for j in range {
                    for &g in selected {
                        values.push(gradients[g][j]);
                    }
                }
            },
            out.as_mut_slice(),
        )?;
        Ok(())
        // lint:end(zero-copy)
    }

    fn kappa(&self, n: usize, f: usize) -> Option<f64> {
        if f == 0 || check_tolerance(n, f).is_err() {
            return None;
        }
        Some(1.0 / (2.0 * eta(n, f)).sqrt())
    }

    fn max_byzantine(&self, n: usize) -> usize {
        n.saturating_sub(3) / 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbyz_tensor::Prng;

    #[test]
    fn resists_outliers_at_capacity() {
        // n = 11, f = 2 (max for Bulyan at n = 11).
        let mut rng = Prng::seed_from_u64(1);
        let mut grads: Vec<Vector> = (0..9).map(|_| rng.normal_vector(3, 0.1)).collect();
        grads.push(Vector::filled(3, 1e6));
        grads.push(Vector::filled(3, -1e6));
        let out = Bulyan::new().aggregate(&grads, 2).unwrap();
        assert!(out.l2_norm() < 2.0, "norm {}", out.l2_norm());
    }

    #[test]
    fn requires_4f_plus_3() {
        let grads = vec![Vector::zeros(1); 10];
        assert!(Bulyan::new().aggregate(&grads, 2).is_err()); // needs 11
        assert!(Bulyan::new().aggregate(&grads, 1).is_ok()); // needs 7
        assert_eq!(Bulyan::new().max_byzantine(11), 2);
        assert_eq!(Bulyan::new().max_byzantine(7), 1);
    }

    #[test]
    fn f_zero_is_plain_mean() {
        let grads = vec![Vector::from(vec![2.0]), Vector::from(vec![4.0])];
        let out = Bulyan::new().aggregate(&grads, 0).unwrap();
        assert_eq!(out[0], 3.0);
    }

    #[test]
    fn kappa_shared_with_krum() {
        use crate::Krum;
        assert_eq!(Bulyan::new().kappa(11, 2), Krum::new().kappa(11, 2));
        assert!(Bulyan::new().kappa(11, 3).is_none()); // beyond 4f+3
    }

    #[test]
    fn tight_cluster_output_is_close_to_cluster_mean() {
        let mut rng = Prng::seed_from_u64(2);
        let grads: Vec<Vector> = (0..11).map(|_| rng.normal_vector(2, 0.01)).collect();
        let mean = Vector::mean(&grads).unwrap();
        let out = Bulyan::new().aggregate(&grads, 2).unwrap();
        assert!(out.l2_distance(&mean) < 0.05);
    }
}
