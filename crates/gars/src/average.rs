//! Plain averaging — the honest-case aggregation (Eq. 1), provably *not*
//! Byzantine resilient.

use crate::{check_input, Gar, GarError, GarScratch};
use dpbyz_tensor::Vector;

/// Arithmetic mean of all submitted gradients.
///
/// Blanchard et al. prove no linear combination of the gradients can be
/// `(α, f)`-Byzantine resilient for `f ≥ 1`; this rule is the baseline the
/// paper's unattacked configurations use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Average;

impl Average {
    /// Creates the rule.
    pub fn new() -> Self {
        Average
    }
}

impl Gar for Average {
    fn name(&self) -> &'static str {
        "average"
    }

    fn aggregate_into(
        &self,
        gradients: &[Vector],
        f: usize,
        _scratch: &mut GarScratch,
        out: &mut Vector,
    ) -> Result<(), GarError> {
        // lint:begin(zero-copy)
        check_input(gradients)?;
        if f > 0 {
            return Err(GarError::TooManyByzantine {
                n: gradients.len(),
                f,
                max: 0,
            });
        }
        Vector::mean_into(gradients, out).expect("checked non-empty"); // lint:allow(panic-unwrap, reason = "check_input validated a non-empty cohort above")
        Ok(())
        // lint:end(zero-copy)
    }

    fn kappa(&self, _n: usize, _f: usize) -> Option<f64> {
        // Averaging has no Byzantine-resilience certificate.
        None
    }

    fn max_byzantine(&self, _n: usize) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_gradients() {
        let grads = vec![Vector::from(vec![1.0, 0.0]), Vector::from(vec![3.0, 2.0])];
        let out = Average::new().aggregate(&grads, 0).unwrap();
        assert_eq!(out.as_slice(), &[2.0, 1.0]);
    }

    #[test]
    fn rejects_byzantine_assumption() {
        let grads = vec![Vector::zeros(2); 3];
        assert!(matches!(
            Average::new().aggregate(&grads, 1),
            Err(GarError::TooManyByzantine { max: 0, .. })
        ));
    }

    #[test]
    fn rejects_empty_and_ragged() {
        assert_eq!(Average::new().aggregate(&[], 0), Err(GarError::Empty));
        let ragged = vec![Vector::zeros(2), Vector::zeros(3)];
        assert!(matches!(
            Average::new().aggregate(&ragged, 0),
            Err(GarError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn no_kappa() {
        assert!(Average::new().kappa(11, 0).is_none());
        assert_eq!(Average::new().max_byzantine(100), 0);
        assert_eq!(Average::new().name(), "average");
    }
}
