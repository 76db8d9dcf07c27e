//! Coordinate-wise median (Yin et al., ICML 2018).

use crate::compute::{self, ShardOp};
use crate::{check_input, Gar, GarError, GarScratch};
use dpbyz_tensor::Vector;

/// Coordinate-wise median of the submitted gradients.
///
/// Tolerates `2f ≤ n − 1`; VN bound `κ = 1/√(n − f)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordinateMedian;

impl CoordinateMedian {
    /// Creates the rule.
    pub fn new() -> Self {
        CoordinateMedian
    }
}

fn check_tolerance(n: usize, f: usize) -> Result<(), GarError> {
    if 2 * f > n.saturating_sub(1) {
        return Err(GarError::TooManyByzantine {
            n,
            f,
            max: n.saturating_sub(1) / 2,
        });
    }
    Ok(())
}

impl Gar for CoordinateMedian {
    fn name(&self) -> &'static str {
        "median"
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
        out.resize(dim, 0.0);
        // Columns are independent, so the coordinate loop shards over the
        // scratch's compute pool — bit-identical to the serial loop at any
        // pool size (same packed column, same statistic, per coordinate).
        let GarScratch {
            ref mut pool,
            ref mut col,
            ref mut sort_buf,
            ..
        } = *scratch;
        compute::run_sharded(
            pool,
            col,
            sort_buf,
            ShardOp::Median,
            dim,
            n,
            &|range, values| {
                values.clear();
                for j in range {
                    for g in gradients {
                        values.push(g[j]);
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
        Some(1.0 / ((n - f) as f64).sqrt())
    }

    fn max_byzantine(&self, n: usize) -> usize {
        n.saturating_sub(1) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_coordinate_median() {
        let grads = vec![
            Vector::from(vec![1.0, -10.0]),
            Vector::from(vec![2.0, 0.0]),
            Vector::from(vec![100.0, 10.0]),
        ];
        let out = CoordinateMedian::new().aggregate(&grads, 1).unwrap();
        assert_eq!(out.as_slice(), &[2.0, 0.0]);
    }

    #[test]
    fn resists_minority_outliers() {
        let mut grads = vec![Vector::from(vec![0.0]); 6];
        for _ in 0..5 {
            grads.push(Vector::from(vec![1e9]));
        }
        let out = CoordinateMedian::new().aggregate(&grads, 5).unwrap();
        assert_eq!(out[0], 0.0);
    }

    #[test]
    fn tolerance_boundary() {
        let grads = vec![Vector::zeros(1); 11];
        assert!(CoordinateMedian::new().aggregate(&grads, 5).is_ok());
        assert!(CoordinateMedian::new().aggregate(&grads, 6).is_err());
        assert_eq!(CoordinateMedian::new().max_byzantine(11), 5);
    }

    #[test]
    fn kappa_formula() {
        let k = CoordinateMedian::new().kappa(11, 5).unwrap();
        assert!((k - 1.0 / 6f64.sqrt()).abs() < 1e-12);
        assert!(CoordinateMedian::new().kappa(11, 0).is_none());
    }
}
