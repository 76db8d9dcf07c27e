//! A dataset's feature rows laid out for batched evaluation.

use dpbyz_tensor::Matrix;

/// Rows per panel of [`RowPanels`].
pub const PANEL_ROWS: usize = 8;

/// The feature rows of a [`Dataset`](crate::Dataset) in panels of
/// [`PANEL_ROWS`] rows, column-major inside each panel: feature `j` of
/// row `i` sits at index `(i / PANEL_ROWS) · cols · PANEL_ROWS + j ·
/// PANEL_ROWS + i % PANEL_ROWS`, so the eight rows of a panel hold each
/// feature in one contiguous run of lanes. The last panel is padded with
/// zero rows up to [`PANEL_ROWS`]; its padding lanes carry no example.
///
/// The values are `f32` when every feature value survives the round trip
/// through `f32` bit for bit (the phishing-like data's `{0, ½, 1}` do),
/// which halves the bytes a pass over the panels reads, and `f64`
/// otherwise. Either way, `f64::from` of a stored value is the feature
/// value bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub enum RowPanels {
    /// Every feature value is exactly an `f32`.
    F32(Box<[f32]>),
    /// Some feature value is not exactly an `f32`.
    F64(Box<[f64]>),
}

impl RowPanels {
    /// Lays out the rows of `features`, in one allocation of exact size.
    pub(crate) fn new(features: &Matrix) -> Self {
        let exact_in_f32 = features
            .as_slice()
            .iter()
            .all(|&x| f64::from(x as f32).to_bits() == x.to_bits());
        if exact_in_f32 {
            RowPanels::F32(lay_out(features, |x| x as f32))
        } else {
            RowPanels::F64(lay_out(features, |x| x))
        }
    }
}

/// The panels of `features`, each value stored as `convert(value)`.
fn lay_out<T: Copy>(features: &Matrix, convert: impl Fn(f64) -> T) -> Box<[T]> {
    let cols = features.cols();
    let panels = features.rows().div_ceil(PANEL_ROWS);
    let mut values = vec![convert(0.0); panels * cols * PANEL_ROWS];
    for (i, row) in features.iter_rows().enumerate() {
        let first = (i / PANEL_ROWS) * cols * PANEL_ROWS + i % PANEL_ROWS;
        for (lane, &x) in values[first..].iter_mut().step_by(PANEL_ROWS).zip(row) {
            *lane = convert(x);
        }
    }
    values.into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthetic, Dataset};
    use dpbyz_tensor::Prng;

    /// A dataset of one row `[1, x]` per value `x`.
    fn beside_ones(values: &[f64]) -> Dataset {
        let rows: Vec<Vec<f64>> = values.iter().map(|&x| vec![1.0, x]).collect();
        let labels = vec![0.0; rows.len()];
        Dataset::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap()
    }

    fn is_f32(ds: &Dataset) -> bool {
        matches!(ds.row_panels(), RowPanels::F32(_))
    }

    #[test]
    fn values_exact_in_f32_pick_f32_panels() {
        let mut rng = Prng::seed_from_u64(1);
        assert!(is_f32(&synthetic::phishing_like(&mut rng, 30)));
        assert!(!is_f32(&synthetic::gaussian_blobs(&mut rng, 30, 4, 1.0)));
        // The rule is bit-exact survival of the round trip through f32.
        assert!(is_f32(&beside_ones(&[
            0.5,
            -0.0,
            2f64.powi(-149),
            2f64.powi(100)
        ])));
        assert!(is_f32(&beside_ones(&[f64::INFINITY, f64::NEG_INFINITY])));
        // An f64 subnormal flushes to zero in f32.
        assert!(!is_f32(&beside_ones(&[0.5, 5e-324])));
        // A NaN payload in the low bits does not fit an f32 NaN.
        assert!(!is_f32(&beside_ones(&[f64::from_bits(
            0x7ff8_0000_0000_0001
        )])));
        assert!(!is_f32(&beside_ones(&[0.1])));
        assert!(!is_f32(&beside_ones(&[1e300])));
    }

    #[test]
    fn panels_hold_every_value_bit_for_bit_column_major_per_panel() {
        let mut rng = Prng::seed_from_u64(2);
        for rows in 0..=17 {
            for ds in [
                synthetic::phishing_like(&mut rng, rows),
                synthetic::gaussian_blobs(&mut rng, rows, 3, 1.0),
            ] {
                let cols = ds.num_features();
                let values: Vec<u64> = match ds.row_panels() {
                    RowPanels::F32(v) => v.iter().map(|&x| f64::from(x).to_bits()).collect(),
                    RowPanels::F64(v) => v.iter().map(|&x| x.to_bits()).collect(),
                };
                let panels = rows.div_ceil(PANEL_ROWS);
                assert_eq!(values.len(), panels * cols * PANEL_ROWS, "{rows} rows");
                for p in 0..panels {
                    for j in 0..cols {
                        for r in 0..PANEL_ROWS {
                            let i = p * PANEL_ROWS + r;
                            let want = if i < rows { ds.example(i).0[j] } else { 0.0 };
                            let at = (p * cols + j) * PANEL_ROWS + r;
                            assert_eq!(values[at], want.to_bits(), "{rows} rows, ({i}, {j})");
                        }
                    }
                }
            }
        }
    }
}
