//! Error type for aggregation.

use dpbyz_tensor::TensorError;
use std::fmt;

/// Errors produced by gradient aggregation rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GarError {
    /// No gradients (or zero-dimensional gradients) were submitted.
    Empty,
    /// Gradients have inconsistent dimensions.
    DimensionMismatch {
        /// Dimension of the first gradient.
        expected: usize,
        /// Offending dimension.
        actual: usize,
    },
    /// The assumed number of Byzantine workers exceeds the rule's tolerance.
    TooManyByzantine {
        /// Total number of workers.
        n: usize,
        /// Assumed Byzantine count.
        f: usize,
        /// Maximum tolerated by this rule at this `n`.
        max: usize,
    },
    /// A coordinate statistic met a NaN among the gradients — what a
    /// diverged run submits. The order statistics have no answer for it.
    NaN,
}

/// The errors of the coordinate statistics a rule calls, once the rule
/// has validated its cohort: only NaN input is left to report, and the
/// shape errors map to their aggregation counterparts.
impl From<TensorError> for GarError {
    fn from(e: TensorError) -> Self {
        match e {
            TensorError::NaN => GarError::NaN,
            TensorError::DimensionMismatch { expected, actual } => {
                GarError::DimensionMismatch { expected, actual }
            }
            TensorError::Empty
            | TensorError::ShapeMismatch { .. }
            | TensorError::IndexOutOfBounds { .. } => GarError::Empty,
        }
    }
}

impl fmt::Display for GarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GarError::Empty => write!(f, "no gradients to aggregate"),
            GarError::DimensionMismatch { expected, actual } => {
                write!(f, "gradient dimension mismatch: {expected} vs {actual}")
            }
            GarError::TooManyByzantine { n, f: fa, max } => write!(
                f,
                "f = {fa} Byzantine workers among n = {n} exceeds this rule's tolerance ({max})"
            ),
            GarError::NaN => write!(f, "NaN among the gradients' coordinates"),
        }
    }
}

impl std::error::Error for GarError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(GarError::Empty.to_string().contains("no gradients"));
        assert!(GarError::DimensionMismatch {
            expected: 2,
            actual: 3
        }
        .to_string()
        .contains("2 vs 3"));
        let e = GarError::TooManyByzantine {
            n: 11,
            f: 6,
            max: 5,
        };
        assert!(e.to_string().contains("f = 6"));
        assert!(e.to_string().contains("tolerance (5)"));
        assert!(GarError::NaN.to_string().contains("NaN"));
        assert_eq!(GarError::from(TensorError::NaN), GarError::NaN);
    }
}
