//! Geometric median via the smoothed Weiszfeld algorithm.
//!
//! The geometric median `argmin_y Σ‖g_i − y‖` underlies several
//! Byzantine-robust schemes (e.g. Chen et al. 2017's Byzantine gradient
//! descent, and RFA). The paper's Table 1 does not analyze it — no
//! `κ_F(n, f)` in its framework is published — so [`Gar::kappa`] returns
//! `None`; it is included as an extension point for sweeps beyond the
//! paper's GAR set.

use crate::{check_input, Gar, GarError, GarScratch};
use dpbyz_tensor::Vector;

/// Smoothed Weiszfeld iteration parameters.
const MAX_ITERS: usize = 100;
const SMOOTHING: f64 = 1e-9;
const TOLERANCE: f64 = 1e-10;

/// Geometric median aggregation.
///
/// Tolerates any minority of Byzantine workers (`2f < n`) in the breakdown
/// sense: moving the median outside the honest hull requires corrupting at
/// least half the points.
///
/// # Example
///
/// ```
/// use dpbyz_gars::{Gar, GeometricMedian};
/// use dpbyz_tensor::Vector;
///
/// let grads = vec![
///     Vector::from(vec![0.0, 0.0]),
///     Vector::from(vec![0.1, 0.0]),
///     Vector::from(vec![-0.1, 0.0]),
///     Vector::from(vec![1e6, 1e6]),
/// ];
/// let out = GeometricMedian::new().aggregate(&grads, 1).unwrap();
/// assert!(out.l2_norm() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeometricMedian;

impl GeometricMedian {
    /// Creates the rule.
    pub fn new() -> Self {
        GeometricMedian
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

/// One smoothed Weiszfeld step from `y`, written into `next`.
fn weiszfeld_step_into(gradients: &[Vector], y: &Vector, next: &mut Vector) {
    next.resize(y.dim(), 0.0);
    next.fill(0.0);
    let mut denominator = 0.0;
    for g in gradients {
        let w = 1.0 / (g.l2_distance(y) + SMOOTHING);
        next.axpy(w, g);
        denominator += w;
    }
    next.scale(1.0 / denominator);
}

impl Gar for GeometricMedian {
    fn name(&self) -> &'static str {
        "geometric-median"
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
        check_tolerance(gradients.len(), f)?;
        // Start from the coordinate-wise mean; iterate to fixed point,
        // ping-ponging between `out` and one scratch buffer.
        Vector::mean_into(gradients, out).expect("validated input"); // lint:allow(panic-unwrap, reason = "check_input validated a non-empty cohort above")
        let next = &mut scratch.vec_a;
        for _ in 0..MAX_ITERS {
            weiszfeld_step_into(gradients, out, next);
            let moved = next.l2_distance(out);
            std::mem::swap(next, out);
            if moved < TOLERANCE {
                break;
            }
        }
        Ok(())
        // lint:end(zero-copy)
    }

    fn kappa(&self, _n: usize, _f: usize) -> Option<f64> {
        // No published VN bound in the paper's framework.
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

    #[test]
    fn scalar_geometric_median_is_the_median() {
        // In 1-D the geometric median coincides with the (set-valued)
        // median; for odd counts it is the middle order statistic.
        let grads = vec![
            Vector::from(vec![1.0]),
            Vector::from(vec![2.0]),
            Vector::from(vec![100.0]),
        ];
        let out = GeometricMedian::new().aggregate(&grads, 1).unwrap();
        assert!((out[0] - 2.0).abs() < 1e-3, "got {}", out[0]);
    }

    #[test]
    fn resists_minority_cluster() {
        let mut rng = Prng::seed_from_u64(1);
        let mut grads: Vec<Vector> = (0..6).map(|_| rng.normal_vector(3, 0.1)).collect();
        for _ in 0..5 {
            grads.push(Vector::filled(3, 1e5));
        }
        let out = GeometricMedian::new().aggregate(&grads, 5).unwrap();
        assert!(out.l2_norm() < 2.0, "hijacked: {}", out.l2_norm());
    }

    #[test]
    fn unanimous_is_fixed_point() {
        let g = Vector::from(vec![3.0, -1.0]);
        let grads = vec![g.clone(); 5];
        let out = GeometricMedian::new().aggregate(&grads, 2).unwrap();
        assert!(out.approx_eq(&g, 1e-6));
    }

    #[test]
    fn minimizes_sum_of_distances_locally() {
        // The output must have a smaller objective than the mean and the
        // coordinate median on an asymmetric cloud.
        let mut rng = Prng::seed_from_u64(2);
        let mut grads: Vec<Vector> = (0..8).map(|_| rng.normal_vector(2, 1.0)).collect();
        grads.push(Vector::filled(2, 30.0));
        let objective = |y: &Vector| grads.iter().map(|g| g.l2_distance(y)).sum::<f64>();
        let gm = GeometricMedian::new().aggregate(&grads, 2).unwrap();
        let mean = Vector::mean(&grads).unwrap();
        assert!(objective(&gm) <= objective(&mean) + 1e-6);
    }

    #[test]
    fn tolerance_and_kappa() {
        let grads = vec![Vector::zeros(1); 10];
        assert!(GeometricMedian::new().aggregate(&grads, 5).is_err());
        assert!(GeometricMedian::new().aggregate(&grads, 4).is_ok());
        assert!(GeometricMedian::new().kappa(11, 5).is_none());
        assert_eq!(GeometricMedian::new().max_byzantine(11), 5);
    }

    #[test]
    fn permutation_invariant_within_tolerance() {
        let mut rng = Prng::seed_from_u64(3);
        let grads: Vec<Vector> = (0..9).map(|_| rng.normal_vector(4, 1.0)).collect();
        let mut shuffled = grads.clone();
        rng.shuffle(&mut shuffled);
        let a = GeometricMedian::new().aggregate(&grads, 3).unwrap();
        let b = GeometricMedian::new().aggregate(&shuffled, 3).unwrap();
        assert!(a.approx_eq(&b, 1e-6));
    }
}
