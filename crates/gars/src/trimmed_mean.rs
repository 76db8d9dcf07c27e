//! Coordinate-wise trimmed mean (Yin et al., ICML 2018).

use crate::compute::{self, ShardOp};
use crate::{check_input, Gar, GarError, GarScratch};
use dpbyz_tensor::Vector;

/// Coordinate-wise `f`-trimmed mean: per coordinate, drop the `f` smallest
/// and `f` largest values and average the rest.
///
/// Tolerates `2f < n`; VN bound `κ = √((n−2f)² / (2(f+1)(n−f)))`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrimmedMean;

impl TrimmedMean {
    /// Creates the rule.
    pub fn new() -> Self {
        TrimmedMean
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

impl Gar for TrimmedMean {
    fn name(&self) -> &'static str {
        "trimmed-mean"
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
        // pool size.
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
            ShardOp::TrimmedMean { trim: f },
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
        let (nf, ff) = (n as f64, f as f64);
        Some(((nf - 2.0 * ff).powi(2) / (2.0 * (ff + 1.0) * (nf - ff))).sqrt())
    }

    fn max_byzantine(&self, n: usize) -> usize {
        n.saturating_sub(1) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trims_extremes_per_coordinate() {
        let grads = vec![
            Vector::from(vec![-1000.0, 1.0]),
            Vector::from(vec![1.0, 2.0]),
            Vector::from(vec![2.0, 3.0]),
            Vector::from(vec![3.0, 1000.0]),
            Vector::from(vec![1000.0, 2.0]),
        ];
        let out = TrimmedMean::new().aggregate(&grads, 1).unwrap();
        assert_eq!(out[0], 2.0);
        assert!((out[1] - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn equals_mean_when_f_zero() {
        let grads = vec![Vector::from(vec![1.0]), Vector::from(vec![3.0])];
        let out = TrimmedMean::new().aggregate(&grads, 0).unwrap();
        assert_eq!(out[0], 2.0);
    }

    #[test]
    fn tolerance_boundary() {
        let grads = vec![Vector::zeros(1); 11];
        assert!(TrimmedMean::new().aggregate(&grads, 5).is_ok());
        assert!(TrimmedMean::new().aggregate(&grads, 6).is_err());
    }

    #[test]
    fn kappa_formula() {
        // n = 11, f = 5: κ = √(1 / (2·6·6)) = 1/√72.
        let k = TrimmedMean::new().kappa(11, 5).unwrap();
        assert!((k - (1.0 / 72f64).sqrt()).abs() < 1e-12);
        assert!(TrimmedMean::new().kappa(11, 0).is_none());
        assert!(TrimmedMean::new().kappa(10, 5).is_none());
    }
}
