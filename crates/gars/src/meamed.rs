//! Meamed — mean around the median (Xie et al., 2018).

use crate::compute::{self, ShardOp};
use crate::{check_input, Gar, GarError, GarScratch};
use dpbyz_tensor::Vector;

/// Per coordinate: take the `n − f` values closest to the coordinate
/// median, average them.
///
/// Tolerates `2f ≤ n − 1`; VN bound `κ = 1/√(10(n−f))`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Meamed;

impl Meamed {
    /// Creates the rule.
    pub fn new() -> Self {
        Meamed
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

impl Gar for Meamed {
    fn name(&self) -> &'static str {
        "meamed"
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
            ShardOp::MeanAroundMedian { keep },
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
        Some(1.0 / (10.0 * (n - f) as f64).sqrt())
    }

    fn max_byzantine(&self, n: usize) -> usize {
        n.saturating_sub(1) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_values_near_median() {
        // Values: 0, 1, 2, 1000 with f = 1 ⇒ keep 3 nearest the median.
        let grads = vec![
            Vector::from(vec![0.0]),
            Vector::from(vec![1.0]),
            Vector::from(vec![2.0]),
            Vector::from(vec![1000.0]),
        ];
        let out = Meamed::new().aggregate(&grads, 1).unwrap();
        assert!((out[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn resists_minority_outliers() {
        let mut grads = vec![Vector::from(vec![0.5]); 6];
        for _ in 0..5 {
            grads.push(Vector::from(vec![-1e8]));
        }
        let out = Meamed::new().aggregate(&grads, 5).unwrap();
        assert_eq!(out[0], 0.5);
    }

    #[test]
    fn kappa_formula_and_tolerance() {
        let k = Meamed::new().kappa(11, 5).unwrap();
        assert!((k - 1.0 / 60f64.sqrt()).abs() < 1e-12);
        assert!(Meamed::new().kappa(11, 6).is_none());
        assert_eq!(Meamed::new().max_byzantine(11), 5);
        let grads = vec![Vector::zeros(1); 11];
        assert!(Meamed::new().aggregate(&grads, 6).is_err());
    }
}
