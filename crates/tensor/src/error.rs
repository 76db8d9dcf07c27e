//! Error type for tensor operations.

use std::fmt;

/// Errors produced by tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible dimensions.
    DimensionMismatch {
        /// Dimension expected by the operation (e.g. the left operand's).
        expected: usize,
        /// Dimension actually supplied.
        actual: usize,
    },
    /// An operation that requires at least one element was given none.
    Empty,
    /// A matrix constructor was given data whose length is not `rows * cols`.
    ShapeMismatch {
        /// Requested number of rows.
        rows: usize,
        /// Requested number of columns.
        cols: usize,
        /// Length of the data supplied.
        len: usize,
    },
    /// An index was out of bounds.
    IndexOutOfBounds {
        /// Offending index.
        index: usize,
        /// Valid length.
        len: usize,
    },
    /// An order statistic (median, quantile, trimmed mean, mean around a
    /// centre) compared a NaN: NaN has no place in the order.
    NaN,
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            TensorError::Empty => write!(f, "operation requires at least one element"),
            TensorError::ShapeMismatch { rows, cols, len } => write!(
                f,
                "shape mismatch: {rows}x{cols} matrix requires {} elements, got {len}",
                rows * cols
            ),
            TensorError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            TensorError::NaN => write!(f, "NaN in the input of an order statistic"),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = TensorError::DimensionMismatch {
            expected: 3,
            actual: 5,
        };
        assert_eq!(e.to_string(), "dimension mismatch: expected 3, got 5");
    }

    #[test]
    fn display_shape_mismatch() {
        let e = TensorError::ShapeMismatch {
            rows: 2,
            cols: 3,
            len: 5,
        };
        assert!(e.to_string().contains("requires 6 elements, got 5"));
    }

    #[test]
    fn display_empty_and_index() {
        assert!(TensorError::Empty.to_string().contains("at least one"));
        let e = TensorError::IndexOutOfBounds { index: 9, len: 4 };
        assert!(e.to_string().contains("index 9"));
        assert!(TensorError::NaN.to_string().contains("NaN"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(TensorError::Empty);
        assert!(!e.to_string().is_empty());
    }
}
