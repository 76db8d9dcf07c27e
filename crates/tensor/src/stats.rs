//! Scalar and per-coordinate statistics.
//!
//! Byzantine-resilient aggregation rules are built out of exactly these
//! primitives: coordinate-wise medians and trimmed means (Median, Trimmed
//! Mean, Phocas, Meamed), and empirical variance estimates (the VN-ratio
//! condition, Eq. 2 / Eq. 8 of the paper).

use crate::{kernels, TensorError, Vector};
use std::cmp::Ordering;

/// Arithmetic mean of a slice.
///
/// Sums through the 4-lane blocked [`kernels::sum`] — the same kernel
/// every coordinate-statistics GAR column reduction (trimmed mean,
/// mean-around) bottoms out in.
///
/// # Errors
///
/// Returns [`TensorError::Empty`] for an empty slice.
pub fn mean(xs: &[f64]) -> Result<f64, TensorError> {
    if xs.is_empty() {
        return Err(TensorError::Empty);
    }
    Ok(kernels::sum(xs) / xs.len() as f64)
}

/// Unbiased (n−1) sample variance.
///
/// # Errors
///
/// Returns [`TensorError::Empty`] for slices with fewer than 2 elements.
pub fn sample_variance(xs: &[f64]) -> Result<f64, TensorError> {
    if xs.len() < 2 {
        return Err(TensorError::Empty);
    }
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Population (÷n) variance.
///
/// # Errors
///
/// Returns [`TensorError::Empty`] for an empty slice.
pub fn population_variance(xs: &[f64]) -> Result<f64, TensorError> {
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// `a.partial_cmp(&b)`, with every NaN ordered above every number and
/// equal to every other NaN, recording in `nan` that one was compared.
/// On NaN-free input it answers exactly as `partial_cmp`; with NaN it is
/// still a total order, so the sort it drives finishes and its caller
/// reports [`TensorError::NaN`]. Any NaN among two or more values is
/// compared at least once, so it is always reported.
pub fn cmp_flagging_nan(a: f64, b: f64, nan: &mut bool) -> Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| {
        *nan = true;
        a.is_nan().cmp(&b.is_nan())
    })
}

/// Median via partial selection; averages the two middle elements for even
/// lengths.
///
/// # Errors
///
/// Returns [`TensorError::Empty`] for an empty slice and
/// [`TensorError::NaN`] if it holds a NaN among two or more values.
pub fn median(xs: &[f64]) -> Result<f64, TensorError> {
    median_with(xs, &mut Vec::new())
}

/// [`median`] with a caller-provided scratch buffer, so repeated calls (one
/// per coordinate in the coordinate-wise GARs) perform no heap allocation
/// once the buffer has warmed up. Bit-identical to [`median`].
///
/// # Errors
///
/// As [`median`].
pub fn median_with(xs: &[f64], scratch: &mut Vec<f64>) -> Result<f64, TensorError> {
    if xs.is_empty() {
        return Err(TensorError::Empty);
    }
    scratch.clear();
    scratch.extend_from_slice(xs);
    let n = scratch.len();
    let mid = n / 2;
    let mut nan = false;
    scratch.select_nth_unstable_by(mid, |&a, &b| cmp_flagging_nan(a, b, &mut nan));
    if nan {
        return Err(TensorError::NaN);
    }
    let hi = scratch[mid];
    if n % 2 == 1 {
        Ok(hi)
    } else {
        let lo = scratch[..mid]
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        Ok((lo + hi) / 2.0)
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) using linear interpolation between order
/// statistics (type-7, the numpy default).
///
/// # Errors
///
/// Returns [`TensorError::Empty`] for an empty slice and
/// [`TensorError::NaN`] if it holds a NaN among two or more values.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> Result<f64, TensorError> {
    assert!((0.0..=1.0).contains(&q), "quantile q must be in [0,1]");
    if xs.is_empty() {
        return Err(TensorError::Empty);
    }
    let mut v = xs.to_vec();
    let mut nan = false;
    v.sort_by(|&a, &b| cmp_flagging_nan(a, b, &mut nan));
    if nan {
        return Err(TensorError::NaN);
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Ok(v[lo] * (1.0 - frac) + v[hi] * frac)
}

/// Mean of the slice after removing the `trim` smallest and `trim` largest
/// elements (the scalar core of the Trimmed Mean GAR).
///
/// # Errors
///
/// Returns [`TensorError::Empty`] if fewer than `2*trim + 1` elements remain
/// and [`TensorError::NaN`] if the slice holds a NaN among two or more
/// values.
pub fn trimmed_mean(xs: &[f64], trim: usize) -> Result<f64, TensorError> {
    trimmed_mean_with(xs, trim, &mut Vec::new())
}

/// [`trimmed_mean`] with a caller-provided scratch buffer (no allocation
/// once warmed up). Bit-identical to [`trimmed_mean`].
///
/// # Errors
///
/// As [`trimmed_mean`].
pub fn trimmed_mean_with(
    xs: &[f64],
    trim: usize,
    scratch: &mut Vec<f64>,
) -> Result<f64, TensorError> {
    if xs.len() < 2 * trim + 1 {
        return Err(TensorError::Empty);
    }
    scratch.clear();
    scratch.extend_from_slice(xs);
    let mut nan = false;
    scratch.sort_by(|&a, &b| cmp_flagging_nan(a, b, &mut nan));
    if nan {
        return Err(TensorError::NaN);
    }
    mean(&scratch[trim..xs.len() - trim])
}

/// Mean of the `k` elements closest to `center` (the scalar core of the
/// Meamed and Phocas GARs).
///
/// # Errors
///
/// Returns [`TensorError::Empty`] if `k == 0` or `k > xs.len()`, and
/// [`TensorError::NaN`] if a distance to `center` among two or more is NaN
/// (a NaN value or centre, or an infinite value at an infinite centre).
pub fn mean_around(xs: &[f64], center: f64, k: usize) -> Result<f64, TensorError> {
    mean_around_with(xs, center, k, &mut Vec::new())
}

/// [`mean_around`] with a caller-provided scratch buffer (no allocation
/// once warmed up). Uses the same *stable* sort as [`mean_around`], so
/// distance ties at the selection boundary resolve identically — the two
/// are bit-identical.
///
/// # Errors
///
/// As [`mean_around`].
pub fn mean_around_with(
    xs: &[f64],
    center: f64,
    k: usize,
    scratch: &mut Vec<f64>,
) -> Result<f64, TensorError> {
    if k == 0 || k > xs.len() {
        return Err(TensorError::Empty);
    }
    scratch.clear();
    scratch.extend_from_slice(xs);
    let mut nan = false;
    scratch.sort_by(|a, b| cmp_flagging_nan((a - center).abs(), (b - center).abs(), &mut nan));
    if nan {
        return Err(TensorError::NaN);
    }
    mean(&scratch[..k])
}

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Used by the trainer to keep running statistics of losses and VN ratios
/// without storing the full history.
///
/// # Example
///
/// ```
/// use dpbyz_tensor::stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [1.0, 2.0, 3.0] { w.push(x); }
/// assert_eq!(w.mean(), 2.0);
/// assert_eq!(w.sample_variance(), 1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than 2 observations).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance (0 if empty).
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_std(&self) -> f64 {
        self.sample_variance().sqrt()
    }
}

/// Per-coordinate unbiased standard deviation across vectors.
///
/// This is exactly the `σ_t` used by the "A Little Is Enough" attack.
///
/// # Errors
///
/// Returns [`TensorError::Empty`] for fewer than 2 vectors,
/// [`TensorError::DimensionMismatch`] for ragged input.
pub fn coordinate_std(vectors: &[Vector]) -> Result<Vector, TensorError> {
    if vectors.len() < 2 {
        return Err(TensorError::Empty);
    }
    let dim = vectors[0].dim();
    let mean = Vector::mean(vectors)?;
    let mut acc = Vector::zeros(dim);
    for v in vectors {
        let d = v - &mean;
        acc += &d.hadamard(&d);
    }
    acc.scale(1.0 / (vectors.len() - 1) as f64);
    Ok(acc.map(f64::sqrt))
}

/// Per-coordinate median across vectors.
///
/// # Errors
///
/// Returns [`TensorError::Empty`] for no vectors,
/// [`TensorError::DimensionMismatch`] for ragged input.
pub fn coordinate_median(vectors: &[Vector]) -> Result<Vector, TensorError> {
    coordinate_apply(vectors, median)
}

/// Applies a scalar reducer to every coordinate column.
fn coordinate_apply(
    vectors: &[Vector],
    f: impl Fn(&[f64]) -> Result<f64, TensorError>,
) -> Result<Vector, TensorError> {
    let first = vectors.first().ok_or(TensorError::Empty)?;
    let dim = first.dim();
    for v in vectors {
        if v.dim() != dim {
            return Err(TensorError::DimensionMismatch {
                expected: dim,
                actual: v.dim(),
            });
        }
    }
    let mut out = Vector::zeros(dim);
    let mut col = vec![0.0; vectors.len()];
    for j in 0..dim {
        for (i, v) in vectors.iter().enumerate() {
            col[i] = v[j];
        }
        out[j] = f(&col)?;
    }
    Ok(out)
}

/// Empirical mean squared deviation of `vectors` around their own mean:
/// an estimate of `E‖G − E[G]‖²`, the numerator of the VN ratio.
///
/// Uses the unbiased (n−1) normalization.
///
/// # Errors
///
/// Returns [`TensorError::Empty`] for fewer than 2 vectors.
pub fn empirical_variance_around_mean(vectors: &[Vector]) -> Result<f64, TensorError> {
    if vectors.len() < 2 {
        return Err(TensorError::Empty);
    }
    let mean = Vector::mean(vectors)?;
    let ss: f64 = vectors.iter().map(|v| v.l2_distance_squared(&mean)).sum();
    Ok(ss / (vectors.len() - 1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_variance() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]).unwrap(), 2.0);
        assert_eq!(sample_variance(&[1.0, 2.0, 3.0]).unwrap(), 1.0);
        assert_eq!(population_variance(&[1.0, 3.0]).unwrap(), 1.0);
        assert!(mean(&[]).is_err());
        assert!(sample_variance(&[1.0]).is_err());
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
        assert_eq!(median(&[7.0]).unwrap(), 7.0);
        assert!(median(&[]).is_err());
    }

    #[test]
    fn quantile_interpolation() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 0.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 3.0);
        assert_eq!(quantile(&xs, 0.5).unwrap(), 1.5);
    }

    #[test]
    fn trimmed_mean_removes_extremes() {
        // Outliers at both ends are removed.
        let xs = [100.0, 1.0, 2.0, 3.0, -50.0];
        assert_eq!(trimmed_mean(&xs, 1).unwrap(), 2.0);
        assert!(trimmed_mean(&xs, 2).is_ok());
        assert!(trimmed_mean(&xs, 3).is_err());
    }

    #[test]
    fn mean_around_center() {
        let xs = [0.0, 1.0, 10.0, 11.0];
        assert_eq!(mean_around(&xs, 0.5, 2).unwrap(), 0.5);
        assert!(mean_around(&xs, 0.0, 0).is_err());
        assert!(mean_around(&xs, 0.0, 5).is_err());
    }

    #[test]
    fn nan_is_a_typed_error_not_a_panic() {
        let mut scratch = Vec::new();
        for xs in [
            &[f64::NAN, 1.0][..],
            &[1.0, 2.0, f64::NAN, 3.0, 4.0],
            &[f64::NAN, f64::NAN, f64::NAN],
        ] {
            assert_eq!(median_with(xs, &mut scratch), Err(TensorError::NaN));
            assert_eq!(quantile(xs, 0.5), Err(TensorError::NaN));
            assert_eq!(
                trimmed_mean_with(xs, 0, &mut scratch),
                Err(TensorError::NaN)
            );
            assert_eq!(mean_around(xs, 1.0, 1), Err(TensorError::NaN));
        }
        // A NaN centre makes every distance NaN; so does an infinite value
        // at an infinite centre.
        assert_eq!(mean_around(&[1.0, 2.0], f64::NAN, 1), Err(TensorError::NaN));
        assert_eq!(
            mean_around(&[f64::INFINITY, 2.0], f64::INFINITY, 1),
            Err(TensorError::NaN)
        );
    }

    #[test]
    fn flagging_comparator_answers_as_partial_cmp_without_nan() {
        let values = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            2.0,
            f64::MAX,
            f64::INFINITY,
        ];
        let mut nan = false;
        for &a in &values {
            for &b in &values {
                assert_eq!(Some(cmp_flagging_nan(a, b, &mut nan)), a.partial_cmp(&b));
            }
        }
        assert!(!nan);
        // With NaN it is a total order: NaN above every number.
        assert_eq!(
            cmp_flagging_nan(f64::NAN, f64::INFINITY, &mut nan),
            Ordering::Greater
        );
        assert_eq!(cmp_flagging_nan(-1.0, f64::NAN, &mut nan), Ordering::Less);
        assert_eq!(
            cmp_flagging_nan(f64::NAN, f64::NAN, &mut nan),
            Ordering::Equal
        );
        assert!(nan);
    }

    #[test]
    fn scratch_variants_match_allocating_bitwise() {
        let xs = [3.5, -1.0, 7.25, 0.0, 2.5, 2.5, -1.0, 9.0];
        let mut scratch = vec![42.0; 2]; // dirty
        assert_eq!(
            median(&xs).unwrap().to_bits(),
            median_with(&xs, &mut scratch).unwrap().to_bits()
        );
        assert_eq!(
            trimmed_mean(&xs, 2).unwrap().to_bits(),
            trimmed_mean_with(&xs, 2, &mut scratch).unwrap().to_bits()
        );
        assert_eq!(
            mean_around(&xs, 2.0, 4).unwrap().to_bits(),
            mean_around_with(&xs, 2.0, 4, &mut scratch)
                .unwrap()
                .to_bits()
        );
        assert!(median_with(&[], &mut scratch).is_err());
        assert!(trimmed_mean_with(&xs, 4, &mut scratch).is_err());
        assert!(mean_around_with(&xs, 0.0, 0, &mut scratch).is_err());
    }

    #[test]
    fn welford_matches_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - mean(&xs).unwrap()).abs() < 1e-12);
        assert!((w.sample_variance() - sample_variance(&xs).unwrap()).abs() < 1e-12);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn welford_empty_is_zero() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.sample_variance(), 0.0);
        assert_eq!(w.population_variance(), 0.0);
    }

    #[test]
    fn coordinate_std_matches_manual() {
        let vs = vec![Vector::from(vec![1.0, 10.0]), Vector::from(vec![3.0, 10.0])];
        let s = coordinate_std(&vs).unwrap();
        assert!((s[0] - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(s[1], 0.0);
    }

    #[test]
    fn coordinate_median_works() {
        let vs = vec![
            Vector::from(vec![1.0, 5.0]),
            Vector::from(vec![2.0, -5.0]),
            Vector::from(vec![100.0, 0.0]),
        ];
        let m = coordinate_median(&vs).unwrap();
        assert_eq!(m.as_slice(), &[2.0, 0.0]);
    }

    #[test]
    fn coordinate_fns_reject_ragged() {
        let vs = vec![Vector::zeros(2), Vector::zeros(3)];
        assert!(coordinate_median(&vs).is_err());
        assert!(coordinate_std(&vs).is_err());
    }

    #[test]
    fn empirical_variance_simple() {
        // Two points at distance 2 ⇒ each at distance 1 from mean,
        // sum of squares 2, over (n-1)=1 ⇒ 2.
        let vs = vec![Vector::from(vec![0.0]), Vector::from(vec![2.0])];
        assert_eq!(empirical_variance_around_mean(&vs).unwrap(), 2.0);
        assert!(empirical_variance_around_mean(&vs[..1]).is_err());
    }

    proptest! {
        #[test]
        fn prop_median_is_order_statistic(xs in proptest::collection::vec(-1e6..1e6f64, 1..64)) {
            let m = median(&xs).unwrap();
            let below = xs.iter().filter(|&&x| x <= m + 1e-9).count();
            let above = xs.iter().filter(|&&x| x >= m - 1e-9).count();
            prop_assert!(below * 2 >= xs.len());
            prop_assert!(above * 2 >= xs.len());
        }

        #[test]
        fn prop_trimmed_mean_within_range(
            xs in proptest::collection::vec(-1e6..1e6f64, 5..64),
            trim in 0usize..2,
        ) {
            let tm = trimmed_mean(&xs, trim).unwrap();
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(tm >= lo - 1e-9 && tm <= hi + 1e-9);
        }

        #[test]
        fn prop_welford_agrees_with_batch(xs in proptest::collection::vec(-1e3..1e3f64, 2..128)) {
            let mut w = Welford::new();
            for &x in &xs { w.push(x); }
            prop_assert!((w.mean() - mean(&xs).unwrap()).abs() < 1e-6);
            prop_assert!((w.sample_variance() - sample_variance(&xs).unwrap()).abs() < 1e-6);
        }

        #[test]
        fn prop_quantile_monotone(xs in proptest::collection::vec(-1e3..1e3f64, 1..64), q1 in 0.0..1.0f64, q2 in 0.0..1.0f64) {
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(quantile(&xs, lo).unwrap() <= quantile(&xs, hi).unwrap() + 1e-9);
        }
    }
}
