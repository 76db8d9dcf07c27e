//! Dense `R^d` vectors — the representation of model parameters and
//! gradients throughout the workspace.

use crate::{kernels, TensorError};
use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense vector of `f64` coordinates.
///
/// `Vector` is the unit of exchange in the distributed SGD protocol: workers
/// submit gradients as `Vector`s, aggregation rules consume slices of them,
/// and the parameter server's model state is one.
///
/// # Example
///
/// ```
/// use dpbyz_tensor::Vector;
///
/// let g = Vector::from(vec![1.0, -2.0, 2.0]);
/// assert_eq!(g.l2_norm(), 3.0);
/// let clipped = g.clipped_l2(1.0);
/// assert!((clipped.l2_norm() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Vector(Vec<f64>);

impl Vector {
    /// Creates a zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Vector(vec![0.0; dim])
    }

    /// Creates a vector of dimension `dim` with every coordinate equal to
    /// `value`.
    pub fn filled(dim: usize, value: f64) -> Self {
        Vector(vec![value; dim])
    }

    /// Creates a standard basis vector `e_i` of dimension `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `i >= dim`.
    pub fn basis(dim: usize, i: usize) -> Result<Self, TensorError> {
        if i >= dim {
            return Err(TensorError::IndexOutOfBounds { index: i, len: dim });
        }
        let mut v = Self::zeros(dim);
        v.0[i] = 1.0;
        Ok(v)
    }

    /// The dimension (number of coordinates).
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector has zero coordinates.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Borrow the coordinates as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Borrow the coordinates as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.0
    }

    /// Consume the vector, returning the underlying `Vec`.
    pub fn into_vec(self) -> Vec<f64> {
        self.0
    }

    /// Iterator over coordinates.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.0.iter()
    }

    /// Dot product `<self, other>`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ; in this workspace a dimension mismatch is
    /// always a programming error, never a runtime condition.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(
            self.dim(),
            other.dim(),
            "dot: dimension mismatch {} vs {}",
            self.dim(),
            other.dim()
        );
        kernels::dot(&self.0, &other.0)
    }

    /// Squared Euclidean norm `‖self‖²`.
    pub fn l2_norm_squared(&self) -> f64 {
        kernels::sum_squares(&self.0)
    }

    /// Euclidean norm `‖self‖₂`.
    pub fn l2_norm(&self) -> f64 {
        self.l2_norm_squared().sqrt()
    }

    /// Euclidean distance `‖self − other‖₂`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn l2_distance(&self, other: &Vector) -> f64 {
        self.l2_distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance `‖self − other‖₂²` — alias of
    /// [`Vector::l2_distance_squared`] under the kernel-suite name used by
    /// the zero-copy aggregation hot path.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[inline]
    pub fn squared_distance(&self, other: &Vector) -> f64 {
        self.l2_distance_squared(other)
    }

    /// Squared Euclidean distance `‖self − other‖₂²`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn l2_distance_squared(&self, other: &Vector) -> f64 {
        assert_eq!(
            self.dim(),
            other.dim(),
            "distance: dimension mismatch {} vs {}",
            self.dim(),
            other.dim()
        );
        kernels::squared_distance(&self.0, &other.0)
    }

    /// Returns `self * scalar` as a new vector.
    pub fn scaled(&self, scalar: f64) -> Vector {
        Vector(self.0.iter().map(|x| x * scalar).collect())
    }

    /// Multiplies every coordinate by `scalar` in place.
    pub fn scale(&mut self, scalar: f64) {
        kernels::scale(&mut self.0, scalar);
    }

    /// In-place `self += alpha * other` (the BLAS `axpy` primitive — the
    /// inner loop of every SGD update).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn axpy(&mut self, alpha: f64, other: &Vector) {
        assert_eq!(
            self.dim(),
            other.dim(),
            "axpy: dimension mismatch {} vs {}",
            self.dim(),
            other.dim()
        );
        kernels::axpy(&mut self.0, alpha, &other.0);
    }

    /// Coordinate-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn hadamard(&self, other: &Vector) -> Vector {
        let mut out = Vector::default();
        self.hadamard_into(other, &mut out);
        out
    }

    /// Writes the coordinate-wise product `self ⊙ other` into `out`
    /// without allocating (when `out` already has capacity) — the
    /// in-place counterpart of [`Vector::hadamard`], bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn hadamard_into(&self, other: &Vector, out: &mut Vector) {
        assert_eq!(
            self.dim(),
            other.dim(),
            "hadamard: dimension mismatch {} vs {}",
            self.dim(),
            other.dim()
        );
        out.0.resize(self.dim(), 0.0);
        kernels::hadamard(&self.0, &other.0, &mut out.0);
    }

    /// Applies `f` to every coordinate, returning a new vector.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Vector {
        Vector(self.0.iter().map(|&x| f(x)).collect())
    }

    /// Applies `f` to every coordinate in place — the allocation-free
    /// counterpart of [`Vector::map`], bit-identical to it (same
    /// per-coordinate expression, no reordering).
    pub fn map_in_place(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.0 {
            *x = f(*x);
        }
    }

    /// Projects the vector onto the L2 ball of radius `max_norm`, returning
    /// the result. Vectors already inside the ball are returned unchanged
    /// (clipping is idempotent and a contraction).
    ///
    /// This is the gradient-clipping primitive the paper relies on to bound
    /// sensitivity (Assumption 1): after `clipped_l2(g_max)` the L2 norm is
    /// at most `g_max`.
    pub fn clipped_l2(&self, max_norm: f64) -> Vector {
        assert!(max_norm >= 0.0, "clip radius must be non-negative");
        let norm = self.l2_norm();
        if norm <= max_norm || norm == 0.0 {
            self.clone()
        } else {
            self.scaled(max_norm / norm)
        }
    }

    /// In-place variant of [`Vector::clipped_l2`]. Returns `true` if the
    /// vector was actually rescaled.
    pub fn clip_l2(&mut self, max_norm: f64) -> bool {
        assert!(max_norm >= 0.0, "clip radius must be non-negative");
        let norm = self.l2_norm();
        if norm <= max_norm || norm == 0.0 {
            false
        } else {
            self.scale(max_norm / norm);
            true
        }
    }

    /// `true` iff every coordinate is finite (no NaN / ±∞).
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|x| x.is_finite())
    }

    /// Coordinate-wise approximate equality within `tol`.
    pub fn approx_eq(&self, other: &Vector, tol: f64) -> bool {
        self.dim() == other.dim()
            && self
                .0
                .iter()
                .zip(other.0.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Sets every coordinate to `value` — the allocation-free counterpart
    /// of [`Vector::filled`] for an existing buffer.
    pub fn fill(&mut self, value: f64) {
        kernels::fill(&mut self.0, value);
    }

    /// Resizes to `dim` coordinates, filling any *new* coordinates with
    /// `value` (existing coordinates are kept). Reuses the allocation when
    /// the capacity suffices.
    pub fn resize(&mut self, dim: usize, value: f64) {
        self.0.resize(dim, value);
    }

    /// Overwrites `self` with the coordinates of `other`, adapting the
    /// dimension if needed. Reuses the existing allocation whenever the
    /// capacity suffices, so at steady state (equal dimensions) this is a
    /// pure `memcpy` — the zero-copy engine's buffer-refill primitive.
    pub fn copy_from(&mut self, other: &Vector) {
        kernels::copy(&other.0, &mut self.0);
    }

    /// Writes `self − other` into `out` without allocating (when `out`
    /// already has capacity). Bit-identical to `&self - &other` (IEEE
    /// negation is exact, so `a − b` and `a + (−1)·b` agree bitwise).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn sub_into(&self, other: &Vector, out: &mut Vector) {
        assert_eq!(
            self.dim(),
            other.dim(),
            "sub_into: dimension mismatch {} vs {}",
            self.dim(),
            other.dim()
        );
        out.0.resize(self.dim(), 0.0);
        kernels::sub(&self.0, &other.0, &mut out.0);
    }

    /// The arithmetic mean of a non-empty slice of equal-dimension vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty slice and
    /// [`TensorError::DimensionMismatch`] if dimensions disagree.
    pub fn mean(vectors: &[Vector]) -> Result<Vector, TensorError> {
        let mut acc = Vector::default();
        Self::mean_into(vectors, &mut acc)?;
        Ok(acc)
    }

    /// Writes the arithmetic mean of `vectors` into `out` without
    /// allocating (when `out` already has capacity). Bit-identical to
    /// [`Vector::mean`]: same accumulation order, same final scaling.
    ///
    /// # Errors
    ///
    /// As [`Vector::mean`]; on error `out` is left in an unspecified but
    /// valid state.
    pub fn mean_into(vectors: &[Vector], out: &mut Vector) -> Result<(), TensorError> {
        let first = vectors.first().ok_or(TensorError::Empty)?;
        let dim = first.dim();
        out.0.clear();
        out.0.resize(dim, 0.0);
        for v in vectors {
            if v.dim() != dim {
                return Err(TensorError::DimensionMismatch {
                    expected: dim,
                    actual: v.dim(),
                });
            }
            out.axpy(1.0, v);
        }
        out.scale(1.0 / vectors.len() as f64);
        Ok(())
    }
}

impl From<Vec<f64>> for Vector {
    fn from(v: Vec<f64>) -> Self {
        Vector(v)
    }
}

impl From<&[f64]> for Vector {
    fn from(v: &[f64]) -> Self {
        Vector(v.to_vec())
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Vector(iter.into_iter().collect())
    }
}

impl AsRef<[f64]> for Vector {
    fn as_ref(&self) -> &[f64] {
        &self.0
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl Add for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        let mut out = self.clone();
        out.axpy(1.0, rhs);
        out
    }
}

impl Sub for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        let mut out = self.clone();
        out.axpy(-1.0, rhs);
        out
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        self.axpy(-1.0, rhs);
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_ones_filled() {
        assert_eq!(Vector::zeros(3).as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(Vector::filled(2, 7.5).as_slice(), &[7.5, 7.5]);
    }

    #[test]
    fn basis_vector() {
        let e1 = Vector::basis(3, 1).unwrap();
        assert_eq!(e1.as_slice(), &[0.0, 1.0, 0.0]);
        assert!(Vector::basis(3, 3).is_err());
    }

    #[test]
    fn dot_and_norms() {
        let a = Vector::from(vec![1.0, 2.0, 3.0]);
        let b = Vector::from(vec![4.0, -5.0, 6.0]);
        assert_eq!(a.dot(&b), 4.0 - 10.0 + 18.0);
        assert_eq!(a.l2_norm_squared(), 14.0);
    }

    #[test]
    fn distances() {
        let a = Vector::from(vec![0.0, 0.0]);
        let b = Vector::from(vec![3.0, 4.0]);
        assert_eq!(a.l2_distance(&b), 5.0);
        assert_eq!(a.l2_distance_squared(&b), 25.0);
    }

    #[test]
    fn arithmetic_operators() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
        c -= &b;
        assert!(c.approx_eq(&a, 1e-15));
    }

    #[test]
    fn axpy_matches_manual() {
        let mut a = Vector::from(vec![1.0, 1.0]);
        a.axpy(2.0, &Vector::from(vec![3.0, -1.0]));
        assert_eq!(a.as_slice(), &[7.0, -1.0]);
    }

    #[test]
    fn hadamard_product() {
        let a = Vector::from(vec![1.0, 2.0, 3.0]);
        let b = Vector::from(vec![2.0, 0.5, -1.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[2.0, 1.0, -3.0]);
    }

    #[test]
    fn map_applies_function() {
        let a = Vector::from(vec![-1.0, 4.0]);
        assert_eq!(a.map(f64::abs).as_slice(), &[1.0, 4.0]);
    }

    #[test]
    fn clipping_reduces_norm() {
        let g = Vector::from(vec![3.0, 4.0]);
        let c = g.clipped_l2(1.0);
        assert!((c.l2_norm() - 1.0).abs() < 1e-12);
        // Direction preserved.
        assert!((c[0] / c[1] - 3.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn clipping_noop_inside_ball() {
        let g = Vector::from(vec![0.3, 0.4]);
        assert_eq!(g.clipped_l2(1.0), g);
        let mut h = g.clone();
        assert!(!h.clip_l2(1.0));
        assert!(h.clip_l2(0.1));
        assert!((h.l2_norm() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn clipping_zero_vector() {
        let z = Vector::zeros(4);
        assert_eq!(z.clipped_l2(1.0), z);
    }

    #[test]
    fn mean_of_vectors() {
        let vs = vec![Vector::from(vec![1.0, 2.0]), Vector::from(vec![3.0, 6.0])];
        assert_eq!(Vector::mean(&vs).unwrap().as_slice(), &[2.0, 4.0]);
        assert_eq!(Vector::mean(&[]), Err(TensorError::Empty));
        let bad = vec![Vector::zeros(2), Vector::zeros(3)];
        assert!(matches!(
            Vector::mean(&bad),
            Err(TensorError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn fill_copy_from_sub_into() {
        let mut v = Vector::from(vec![1.0, 2.0, 3.0]);
        v.fill(0.25);
        assert_eq!(v.as_slice(), &[0.25, 0.25, 0.25]);

        // copy_from adapts the dimension and reuses capacity.
        let src = Vector::from(vec![9.0, -9.0]);
        v.copy_from(&src);
        assert_eq!(v, src);
        let longer = Vector::from(vec![1.0, 2.0, 3.0, 4.0]);
        v.copy_from(&longer);
        assert_eq!(v, longer);

        let a = Vector::from(vec![5.0, 7.0]);
        let b = Vector::from(vec![1.0, 2.0]);
        let mut out = Vector::zeros(0);
        a.sub_into(&b, &mut out);
        assert_eq!(out, &a - &b);
    }

    #[test]
    fn mean_into_matches_mean_bitwise() {
        let mut rng = crate::Prng::seed_from_u64(5);
        let vs: Vec<Vector> = (0..7).map(|_| rng.normal_vector(9, 1.3)).collect();
        let allocating = Vector::mean(&vs).unwrap();
        let mut reused = Vector::from(vec![999.0; 3]); // dirty, wrong dim
        Vector::mean_into(&vs, &mut reused).unwrap();
        for (a, b) in allocating.iter().zip(reused.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(Vector::mean_into(&[], &mut reused).is_err());
        let ragged = vec![Vector::zeros(2), Vector::zeros(3)];
        assert!(Vector::mean_into(&ragged, &mut reused).is_err());
    }

    #[test]
    fn squared_distance_aliases_l2() {
        let a = Vector::from(vec![0.0, 0.0]);
        let b = Vector::from(vec![3.0, 4.0]);
        assert_eq!(a.squared_distance(&b), a.l2_distance_squared(&b));
    }

    #[test]
    fn finite_detection() {
        assert!(Vector::from(vec![1.0, -2.0]).is_finite());
        assert!(!Vector::from(vec![1.0, f64::NAN]).is_finite());
        assert!(!Vector::from(vec![f64::INFINITY]).is_finite());
    }

    #[test]
    fn serde_roundtrip() {
        let v = Vector::from(vec![1.5, -0.25]);
        let json = serde_json_like_roundtrip(&v);
        assert_eq!(json, v);
    }

    // serde_json isn't a sanctioned dependency; round-trip through the
    // serde data model with a tiny in-memory format instead.
    fn serde_json_like_roundtrip(v: &Vector) -> Vector {
        let bytes = bincode_like_serialize(v.as_slice());
        Vector::from(bincode_like_deserialize(&bytes))
    }

    fn bincode_like_serialize(xs: &[f64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + xs.len() * 8);
        out.extend_from_slice(&(xs.len() as u64).to_le_bytes());
        for x in xs {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out
    }

    fn bincode_like_deserialize(bytes: &[u8]) -> Vec<f64> {
        let n = u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize;
        (0..n)
            .map(|i| f64::from_le_bytes(bytes[8 + i * 8..16 + i * 8].try_into().unwrap()))
            .collect()
    }

    #[test]
    #[should_panic(expected = "dot: dimension mismatch")]
    fn dot_mismatch_panics() {
        let _ = Vector::zeros(2).dot(&Vector::zeros(3));
    }

    proptest! {
        #[test]
        fn prop_clip_is_contraction(xs in proptest::collection::vec(-1e3..1e3f64, 1..64), r in 0.0..10.0f64) {
            let v = Vector::from(xs);
            let c = v.clipped_l2(r);
            prop_assert!(c.l2_norm() <= r + 1e-9);
        }

        #[test]
        fn prop_clip_idempotent(xs in proptest::collection::vec(-1e3..1e3f64, 1..64), r in 0.01..10.0f64) {
            let v = Vector::from(xs);
            let once = v.clipped_l2(r);
            let twice = once.clipped_l2(r);
            prop_assert!(once.approx_eq(&twice, 1e-12));
        }

        #[test]
        fn prop_triangle_inequality(
            a in proptest::collection::vec(-1e3..1e3f64, 8),
            b in proptest::collection::vec(-1e3..1e3f64, 8),
        ) {
            let a = Vector::from(a);
            let b = Vector::from(b);
            prop_assert!((&a + &b).l2_norm() <= a.l2_norm() + b.l2_norm() + 1e-9);
        }

        #[test]
        fn prop_cauchy_schwarz(
            a in proptest::collection::vec(-1e2..1e2f64, 8),
            b in proptest::collection::vec(-1e2..1e2f64, 8),
        ) {
            let a = Vector::from(a);
            let b = Vector::from(b);
            prop_assert!(a.dot(&b).abs() <= a.l2_norm() * b.l2_norm() + 1e-9);
        }

        #[test]
        fn prop_mean_between_min_max(xs in proptest::collection::vec(-1e3..1e3f64, 1..32)) {
            let vs: Vec<Vector> = xs.iter().map(|&x| Vector::from(vec![x])).collect();
            let m = Vector::mean(&vs).unwrap()[0];
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }
    }
}
