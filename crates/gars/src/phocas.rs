//! Phocas (Xie et al., 2018) — trimmed mean around the trimmed mean.

use crate::compute::{self, ShardOp};
use crate::{check_input, Gar, GarError, GarScratch};
use dpbyz_tensor::Vector;

/// Per coordinate: compute the `f`-trimmed mean, then average the `n − f`
/// values closest to it.
///
/// Tolerates `2f < n`; VN bound `κ = √(4 + (n−2f)²/(12(f+1)(n−f)))`
/// (the constant appearing in the paper's Proposition 3 proof).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Phocas;

impl Phocas {
    /// Creates the rule.
    pub fn new() -> Self {
        Phocas
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

impl Gar for Phocas {
    fn name(&self) -> &'static str {
        "phocas"
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
        let keep = n - f;
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
            ShardOp::MeanAroundTrimmedMean { trim: f, keep },
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
        Some((4.0 + (nf - 2.0 * ff).powi(2) / (12.0 * (ff + 1.0) * (nf - ff))).sqrt())
    }

    fn max_byzantine(&self, n: usize) -> usize {
        n.saturating_sub(1) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ignores_extreme_values() {
        // One Byzantine outlier among n = 4, f = 1: the trimmed mean is
        // mean{1, 2} = 1.5 and the n − f = 3 values closest to it are
        // {1, 2, 3}, so the outlier is excluded.
        let grads = vec![
            Vector::from(vec![-1e7]),
            Vector::from(vec![1.0]),
            Vector::from(vec![2.0]),
            Vector::from(vec![3.0]),
        ];
        let out = Phocas::new().aggregate(&grads, 1).unwrap();
        assert!((out[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn resists_half_minus_one_outliers() {
        let mut grads = vec![Vector::from(vec![1.0]); 6];
        for _ in 0..5 {
            grads.push(Vector::from(vec![9e9]));
        }
        let out = Phocas::new().aggregate(&grads, 5).unwrap();
        assert_eq!(out[0], 1.0);
    }

    #[test]
    fn kappa_formula() {
        // n = 11, f = 5: κ = √(4 + 1/(12·6·6)).
        let k = Phocas::new().kappa(11, 5).unwrap();
        assert!((k - (4.0 + 1.0 / 432.0_f64).sqrt()).abs() < 1e-12);
        assert!(Phocas::new().kappa(11, 0).is_none());
    }

    #[test]
    fn tolerance_boundary() {
        let grads = vec![Vector::zeros(1); 10];
        assert!(Phocas::new().aggregate(&grads, 4).is_ok());
        assert!(Phocas::new().aggregate(&grads, 5).is_err());
    }
}
