//! Row-major dense matrices, used for dataset feature tables.

use crate::TensorError;
#[cfg(test)]
use crate::Vector;
use serde::{Deserialize, Serialize};

/// A dense row-major `rows × cols` matrix of `f64`.
///
/// # Example
///
/// ```
/// use dpbyz_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(m.row(1), &[3.0, 4.0]);
/// assert_eq!(m.get(0, 1), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len() != rows * cols`.
    #[cfg(test)]
    fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for no rows and
    /// [`TensorError::DimensionMismatch`] for ragged rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, TensorError> {
        let first = rows.first().ok_or(TensorError::Empty)?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(TensorError::DimensionMismatch {
                    expected: cols,
                    actual: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the `i`-th row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow the `i`-th row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            j < self.cols,
            "col {j} out of bounds for {} cols",
            self.cols
        );
        self.row(i)[j]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(
            j < self.cols,
            "col {j} out of bounds for {} cols",
            self.cols
        );
        let cols = self.cols;
        self.data[i * cols + j] = value;
    }

    /// Row-major backing slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.dim() != cols`.
    #[cfg(test)]
    fn matvec(&self, x: &Vector) -> Vector {
        assert_eq!(
            x.dim(),
            self.cols,
            "matvec: vector dim {} vs {} cols",
            x.dim(),
            self.cols
        );
        let xs = x.as_slice();
        (0..self.rows)
            .map(|i| {
                self.row(i)
                    .iter()
                    .zip(xs.iter())
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
            })
            .collect()
    }

    /// Transposed matrix–vector product `selfᵀ * y`.
    ///
    /// # Panics
    ///
    /// Panics if `y.dim() != rows`.
    #[cfg(test)]
    fn matvec_transposed(&self, y: &Vector) -> Vector {
        assert_eq!(
            y.dim(),
            self.rows,
            "matvec_transposed: vector dim {} vs {} rows",
            y.dim(),
            self.rows
        );
        let mut out = Vector::zeros(self.cols);
        for i in 0..self.rows {
            let yi = y[i];
            if yi == 0.0 {
                continue;
            }
            let row = self.row(i);
            let o = out.as_mut_slice();
            for j in 0..self.cols {
                o[j] += yi * row[j];
            }
        }
        out
    }

    /// Returns a new matrix containing the rows selected by `indices`
    /// (duplicates allowed).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Reshapes in place to `rows × cols` with every entry set to `value`,
    /// reusing the allocation when the capacity suffices.
    pub fn resize(&mut self, rows: usize, cols: usize, value: f64) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, value);
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let m = m22();
        assert_eq!((m.rows(), m.cols()), (2, 2));
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
    }

    #[test]
    fn from_vec_validates_shape() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(matches!(
            Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]),
            Err(TensorError::DimensionMismatch { .. })
        ));
        assert_eq!(Matrix::from_rows(&[]), Err(TensorError::Empty));
    }

    #[test]
    fn matvec_works() {
        let y = m22().matvec(&Vector::from(vec![1.0, -1.0]));
        assert_eq!(y.as_slice(), &[-1.0, -1.0]);
    }

    #[test]
    fn matvec_transposed_works() {
        let y = m22().matvec_transposed(&Vector::from(vec![1.0, 1.0]));
        assert_eq!(y.as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn transpose_consistency_inner_product() {
        // <A x, y> == <x, A^T y>
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![0.5, -1.0, 4.0]]).unwrap();
        let x = Vector::from(vec![0.2, -0.7, 1.1]);
        let y = Vector::from(vec![2.0, -3.0]);
        let lhs = a.matvec(&x).dot(&y);
        let rhs = x.dot(&a.matvec_transposed(&y));
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn set_and_get() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 9.0);
        assert_eq!(m.get(1, 2), 9.0);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn select_rows_with_duplicates() {
        let m = m22();
        let s = m.select_rows(&[1, 1, 0]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(0), &[3.0, 4.0]);
        assert_eq!(s.row(2), &[1.0, 2.0]);
    }

    #[test]
    fn iter_rows_yields_all() {
        let m = m22();
        let rows: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "matvec: vector dim")]
    fn matvec_mismatch_panics() {
        let _ = m22().matvec(&Vector::zeros(3));
    }
}
