//! Centered clipping (Karimireddy, He, Jaggi — ICML 2021).
//!
//! Instead of *selecting* gradients (Krum, MDA) or taking order statistics
//! (median, trimmed mean), centered clipping *shrinks* every submission
//! toward a robust center: starting from a reference point `v`, each
//! iteration moves `v` by the average of the clipped residuals
//!
//! ```text
//! v ← v + (1/n) · Σ_i (g_i − v) · min(1, τ / ‖g_i − v‖)
//! ```
//!
//! A Byzantine gradient can pull the center by at most `τ/n` per
//! iteration no matter how far away it sits, while honest gradients
//! within radius `τ` of the center contribute their full residual — the
//! rule degrades gracefully instead of discarding information.

use crate::{check_input, Gar, GarError, GarScratch};
use dpbyz_tensor::{stats, Vector};

/// Centered clipping aggregation.
///
/// The iteration starts from the coordinate-wise median of the
/// submissions (this implementation is a stateless pure function of one
/// round's gradients, so the median replaces the previous round's
/// aggregate that the original momentum-coupled formulation carries
/// across steps) and runs a fixed number of clipped-residual updates.
///
/// Tolerates any minority of Byzantine workers (`2f < n`) in the
/// breakdown sense. The paper's VN framework publishes no `κ_F` for it —
/// its guarantee lives in the `(δ_max, c)`-robustness framework of
/// Karimireddy et al. — so [`Gar::kappa`] returns `None`, like
/// [`GeometricMedian`](crate::GeometricMedian).
///
/// # Example
///
/// ```
/// use dpbyz_gars::{CenteredClipping, Gar};
/// use dpbyz_tensor::Vector;
///
/// let grads = vec![
///     Vector::from(vec![0.0, 0.1]),
///     Vector::from(vec![0.1, 0.0]),
///     Vector::from(vec![-0.1, -0.1]),
///     Vector::from(vec![1e6, 1e6]), // Byzantine
/// ];
/// let out = CenteredClipping::new(0.5, 3).aggregate(&grads, 1).unwrap();
/// // The outlier's pull is capped at τ/n per iteration.
/// assert!(out.l2_norm() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CenteredClipping {
    /// Clipping radius τ around the current center.
    pub tau: f64,
    /// Number of clipped-residual iterations.
    pub iters: usize,
}

impl CenteredClipping {
    /// Creates the rule with clipping radius `tau` and `iters` iterations.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not strictly positive.
    pub fn new(tau: f64, iters: usize) -> Self {
        assert!(tau > 0.0, "centered clipping needs a positive radius");
        CenteredClipping { tau, iters }
    }
}

impl Default for CenteredClipping {
    /// τ = 1, 3 iterations — a neutral radius; sweeps tune `tau` to the
    /// workload's gradient scale (the paper protocol clips at
    /// `G_max = 10⁻²`, so its cells use τ of that order).
    fn default() -> Self {
        CenteredClipping { tau: 1.0, iters: 3 }
    }
}

fn check_tolerance(n: usize, f: usize) -> Result<(), GarError> {
    if 2 * f >= n {
        return Err(GarError::TooManyByzantine {
            n,
            f,
            max: n.saturating_sub(1) / 2,
        });
    }
    Ok(())
}

impl Gar for CenteredClipping {
    fn name(&self) -> &'static str {
        "centered-clipping"
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

        // Robust start: the coordinate-wise median (same kernels as the
        // median rule, same scratch columns).
        out.resize(dim, 0.0);
        {
            let GarScratch {
                ref mut col,
                ref mut sort_buf,
                ..
            } = *scratch;
            col.clear();
            col.resize(n, 0.0);
            for j in 0..dim {
                for (i, g) in gradients.iter().enumerate() {
                    col[i] = g[j];
                }
                out[j] = stats::median_with(col, sort_buf)?;
            }
        }

        // Clipped-residual iterations, accumulating the average update in
        // one reused scratch vector.
        let acc = &mut scratch.vec_a;
        let n_f64 = n as f64;
        for _ in 0..self.iters {
            acc.resize(dim, 0.0);
            acc.fill(0.0);
            for g in gradients {
                let dist = g.l2_distance(out);
                let weight = if dist > self.tau {
                    self.tau / dist
                } else {
                    1.0
                };
                for j in 0..dim {
                    acc[j] += weight * (g[j] - out[j]);
                }
            }
            for j in 0..dim {
                out[j] += acc[j] / n_f64;
            }
        }
        Ok(())
        // lint:end(zero-copy)
    }

    fn kappa(&self, _n: usize, _f: usize) -> Option<f64> {
        // No published bound in the paper's VN framework.
        None
    }

    fn max_byzantine(&self, n: usize) -> usize {
        n.saturating_sub(1) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbyz_tensor::Prng;
    use proptest::prelude::*;

    #[test]
    fn unanimous_is_fixed_point() {
        let g = Vector::from(vec![0.4, -1.2]);
        let grads = vec![g.clone(); 7];
        let out = CenteredClipping::default().aggregate(&grads, 3).unwrap();
        assert!(out.approx_eq(&g, 1e-12));
    }

    #[test]
    fn outlier_pull_is_bounded_by_tau() {
        // f far outliers move the center at most f·τ·iters/n from the
        // honest cluster, regardless of their magnitude.
        let mut rng = Prng::seed_from_u64(1);
        let mut grads: Vec<Vector> = (0..8).map(|_| rng.normal_vector(4, 0.1)).collect();
        for _ in 0..3 {
            grads.push(Vector::filled(4, 1e9));
        }
        let rule = CenteredClipping::new(0.5, 3);
        let out = rule.aggregate(&grads, 3).unwrap();
        assert!(out.l2_norm() < 1.0, "hijacked: {}", out.l2_norm());
    }

    #[test]
    fn honest_case_approaches_mean() {
        // With a radius dwarfing every residual nothing is clipped, so one
        // iteration from the median lands near the mean.
        let grads = vec![
            Vector::from(vec![1.0]),
            Vector::from(vec![2.0]),
            Vector::from(vec![6.0]),
        ];
        let out = CenteredClipping::new(100.0, 8)
            .aggregate(&grads, 0)
            .unwrap();
        assert!((out[0] - 3.0).abs() < 1e-6, "got {}", out[0]);
    }

    #[test]
    fn tolerance_and_kappa() {
        let grads = vec![Vector::zeros(1); 10];
        assert!(CenteredClipping::default().aggregate(&grads, 5).is_err());
        assert!(CenteredClipping::default().aggregate(&grads, 4).is_ok());
        assert_eq!(CenteredClipping::default().max_byzantine(11), 5);
        assert!(CenteredClipping::default().kappa(11, 5).is_none());
    }

    #[test]
    #[should_panic(expected = "positive radius")]
    fn non_positive_radius_rejected() {
        let _ = CenteredClipping::new(0.0, 3);
    }

    #[test]
    fn zero_iterations_is_the_median() {
        let grads = vec![
            Vector::from(vec![1.0]),
            Vector::from(vec![5.0]),
            Vector::from(vec![100.0]),
        ];
        let out = CenteredClipping::new(1.0, 0).aggregate(&grads, 1).unwrap();
        assert_eq!(out[0], 5.0);
    }

    /// Naive reference: the textbook formulation, written independently of
    /// the scratch-based hot path (fresh allocations, `Vec<f64>` center).
    fn reference(gradients: &[Vector], tau: f64, iters: usize) -> Vec<f64> {
        let dim = gradients[0].dim();
        let n = gradients.len();
        let mut v: Vec<f64> = (0..dim)
            .map(|j| {
                let mut col: Vec<f64> = gradients.iter().map(|g| g[j]).collect();
                stats::median_with(&col.clone(), &mut col).unwrap()
            })
            .collect();
        for _ in 0..iters {
            let mut acc = vec![0.0; dim];
            for g in gradients {
                let dist = (0..dim)
                    .map(|j| (g[j] - v[j]) * (g[j] - v[j]))
                    .sum::<f64>()
                    .sqrt();
                let w = if dist > tau { tau / dist } else { 1.0 };
                for (j, a) in acc.iter_mut().enumerate() {
                    *a += w * (g[j] - v[j]);
                }
            }
            for (j, x) in v.iter_mut().enumerate() {
                *x += acc[j] / n as f64;
            }
        }
        v
    }

    proptest! {
        #[test]
        fn prop_hot_path_matches_reference(
            seed in 0u64..300,
            tau in 0.05f64..5.0,
            iters in 0usize..5,
        ) {
            let mut rng = Prng::seed_from_u64(seed);
            let grads: Vec<Vector> = (0..9).map(|_| rng.normal_vector(6, 1.0)).collect();
            let expected = reference(&grads, tau, iters);
            // Dirty, wrong-sized scratch and output: the server's reuse
            // pattern.
            let mut scratch = GarScratch::new();
            scratch.vec_a.resize(2, 7.0);
            let mut out = Vector::from(vec![3.0; 2]);
            CenteredClipping::new(tau, iters)
                .aggregate_into(&grads, 4, &mut scratch, &mut out)
                .unwrap();
            prop_assert_eq!(out.dim(), expected.len());
            // The reference computes residual norms with a sequential
            // scalar fold while the hot path uses the 4-lane blocked
            // distance kernel, so the comparison carries the kernel
            // layer's equivalence contract: ≤ 1e-12 relative error (the
            // clip weights are the only place the reordered reduction
            // enters; everything else is elementwise and exact).
            for (a, b) in out.iter().zip(&expected) {
                let scale = a.abs().max(b.abs()).max(1.0);
                prop_assert!((a - b).abs() / scale <= 1e-12, "{a} vs {b}");
            }
        }
    }
}
