//! Logistic regression — the paper's evaluation model (§5.1).

use crate::Model;
use dpbyz_data::{Batch, Dataset, RowPanels, PANEL_ROWS};
use dpbyz_tensor::Vector;
use serde::{Deserialize, Serialize};

/// Numerically stable sigmoid `1 / (1 + e^{-z})`.
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Whether a row with margin `z` is predicted positive, `sigmoid(z) >=
/// 0.5`, with the `exp` evaluated only for margins in `[-SIGN_BAND, 0)`
/// and NaN.
///
/// Both shortcuts agree with [`sigmoid`] for any faithfully rounded `exp`
/// (one whose result is one of the two doubles around the exact value):
///
/// * `z >= 0` (including `-0.0` and `+∞`): the exact `e^{-z}` is at
///   most 1, a double, so `exp(-z) <= 1`; then `1 + exp(-z)` rounds to
///   at most 2 and the quotient `1 / (1 + exp(-z))` to at least `0.5`.
/// * `z < -SIGN_BAND` (including `-∞`): the exact `e^z` is below
///   `e^{-1e-9} < 1 - 9.99e-10`, and a faithful `exp` is off by less than
///   one ulp (`2.2e-16` near 1), so `e = exp(z) < 1 - 9.9e-10`. The exact
///   `e / (1 + e)` is then below `0.5 - 2.4e-10`, and the two roundings
///   of `sigmoid` (the sum and the quotient, each within a relative
///   `2^-53`) move it by less than `1.2e-16`: it stays below `0.5`.
///
/// Between the two, `sigmoid(z)` may round to exactly `0.5` (at `z =
/// -1e-20` it does), so those margins, and NaN, take the `exp`. The two
/// shortcut tests are joined without short-circuiting, so a margin
/// outside the band costs one well-predicted branch whatever its sign.
fn predicts_positive(z: f64) -> bool {
    let positive = z >= 0.0;
    if positive | (z < -SIGN_BAND) {
        positive
    } else {
        sigmoid(z) >= 0.5
    }
}

/// Half-width of the band of negative margins [`predicts_positive`]
/// hands to [`sigmoid`].
const SIGN_BAND: f64 = 1e-9;

/// Rows per block of the margin pass shared by the loss and gradient.
const MARGIN_BLOCK: usize = 8;

/// Training loss used on top of the sigmoid output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LossKind {
    /// `(σ(z) − y)²` — mean squared error on the sigmoid output. This is
    /// what the paper trains with ("we use the mean square error as
    /// training loss" on a logistic model).
    SigmoidMse,
    /// `−[y·ln σ(z) + (1−y)·ln(1−σ(z))]` — standard cross-entropy, included
    /// for ablations.
    CrossEntropy,
}

/// Logistic regression with bias: `p(x) = σ(<w, x> + b)`.
///
/// Parameter layout: `[w_1 … w_k, b]`, so `dim = num_features + 1` —
/// the paper's phishing model has `d = 68 + 1 = 69`.
///
/// # Example
///
/// ```
/// use dpbyz_models::{LogisticRegression, LossKind, Model};
/// use dpbyz_tensor::Vector;
///
/// let m = LogisticRegression::new(2, LossKind::SigmoidMse);
/// assert_eq!(m.dim(), 3);
/// let p = m.predict(&Vector::zeros(3), &[1.0, -1.0]);
/// assert_eq!(p, 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogisticRegression {
    num_features: usize,
    loss: LossKind,
}

impl LogisticRegression {
    /// Creates a model over `num_features` input features.
    ///
    /// # Panics
    ///
    /// Panics if `num_features == 0`.
    pub fn new(num_features: usize, loss: LossKind) -> Self {
        assert!(num_features > 0, "num_features must be positive");
        LogisticRegression { num_features, loss }
    }

    fn raw(&self, params: &Vector, features: &[f64]) -> f64 {
        debug_assert_eq!(features.len(), self.num_features);
        let w = params.as_slice();
        let mut z = w[self.num_features]; // bias
        for (wi, xi) in w[..self.num_features].iter().zip(features) {
            z += wi * xi;
        }
        z
    }

    /// Walks the rows of `batch` in [`MARGIN_BLOCK`]-row blocks, then the
    /// rows left over after the last block as blocks of one, handing each
    /// block's margins and rows to `visit` in row order. Each margin is
    /// `raw(params, x)` bit for bit: one accumulator per row, bias first,
    /// then features left to right, but a block's dependent add chains
    /// overlap instead of running back to back.
    fn walk<V: BlockVisitor>(&self, params: &Vector, batch: &Batch, visit: &mut V) {
        let len = batch.len();
        let blocked = len - len % MARGIN_BLOCK;
        for start in (0..blocked).step_by(MARGIN_BLOCK) {
            self.margin_block::<MARGIN_BLOCK, V>(params, batch, start, visit);
        }
        for i in blocked..len {
            self.margin_block::<1, V>(params, batch, i, visit);
        }
    }

    /// The margins of the `R` rows of `batch` from `start`, handed to
    /// `visit`.
    fn margin_block<const R: usize, V: BlockVisitor>(
        &self,
        params: &Vector,
        batch: &Batch,
        start: usize,
        visit: &mut V,
    ) {
        let w = params.as_slice();
        let (w, bias) = (&w[..self.num_features], w[self.num_features]);
        let rows: [(&[f64], f64); R] = std::array::from_fn(|r| batch.example(start + r));
        // Rows cut to the weights' length, so the loop below runs without
        // bounds checks (and vectorizes across the block's rows).
        let xs: [&[f64]; R] = std::array::from_fn(|r| &rows[r].0[..w.len()]);
        let mut z = [bias; R];
        for j in 0..w.len() {
            let wj = w[j];
            for r in 0..R {
                z[r] += wj * xs[r][j];
            }
        }
        visit.block(&z, &rows);
    }

    /// The rows among `labels` whose prediction matches the label, over
    /// their [`RowPanels`] values of `cols` features per row. Each lane
    /// adds bias first, then `w_j · x_j` for the features in order, on the
    /// same `f64` operands as [`LogisticRegression::raw`]; the panel's
    /// padding lanes have no label and are not counted.
    fn count_panels<T: Copy + Into<f64>>(
        &self,
        params: &Vector,
        values: &[T],
        cols: usize,
        labels: &[f64],
    ) -> usize {
        let w = params.as_slice();
        let (w, bias) = (&w[..self.num_features], w[self.num_features]);
        let (lanes, _) = values.as_chunks::<PANEL_ROWS>();
        let mut correct = 0;
        for (panel, ys) in lanes.chunks_exact(cols).zip(labels.chunks(PANEL_ROWS)) {
            let mut z = [bias; PANEL_ROWS];
            for (&wj, xs) in w.iter().zip(panel) {
                for (zr, &x) in z.iter_mut().zip(xs) {
                    *zr += wj * x.into();
                }
            }
            for (&zr, &y) in z.iter().zip(ys) {
                correct += usize::from(predicts_positive(zr) == (y == 1.0));
            }
        }
        correct
    }

    /// Writes the average gradient over `batch` into `out` and returns
    /// the summed loss (`0.0` unless `with_loss`).
    fn gradient_sum(
        &self,
        params: &Vector,
        batch: &Batch,
        out: &mut Vector,
        with_loss: bool,
    ) -> f64 {
        out.resize(self.dim(), 0.0);
        out.fill(0.0);
        let mut sum = GradientSum {
            model: self,
            g: out.as_mut_slice(),
            with_loss,
            total: 0.0,
        };
        self.walk(params, batch, &mut sum);
        let total = sum.total;
        out.scale(1.0 / batch.len() as f64);
        total
    }

    /// One row's loss at prediction `p` and label `y`.
    fn row_loss(&self, p: f64, y: f64) -> f64 {
        match self.loss {
            LossKind::SigmoidMse => (p - y) * (p - y),
            LossKind::CrossEntropy => {
                // Clamp avoids -inf on saturated predictions.
                let p = p.clamp(1e-12, 1.0 - 1e-12);
                -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
            }
        }
    }

    /// One row's `dL/dz` at prediction `p` and label `y`; `dσ/dz = σ(1−σ)`.
    fn row_dz(&self, p: f64, y: f64) -> f64 {
        match self.loss {
            LossKind::SigmoidMse => 2.0 * (p - y) * p * (1.0 - p),
            LossKind::CrossEntropy => p - y,
        }
    }
}

/// What one [`LogisticRegression::walk`] does with each block of rows.
trait BlockVisitor {
    /// Visits `R` consecutive rows as `(x, y)` with their margins `z`.
    fn block<const R: usize>(&mut self, z: &[f64; R], rows: &[(&[f64], f64); R]);
}

/// Sums the rows' losses.
struct LossSum<'m> {
    model: &'m LogisticRegression,
    total: f64,
}

impl BlockVisitor for LossSum<'_> {
    fn block<const R: usize>(&mut self, z: &[f64; R], rows: &[(&[f64], f64); R]) {
        for (&zr, &(_, y)) in z.iter().zip(rows) {
            self.total += self.model.row_loss(sigmoid(zr), y);
        }
    }
}

/// Adds every row's `dz · [x, 1]` into `g` (summing the rows' losses too
/// when `with_loss`). A block is accumulated with one load and one store
/// of each coordinate: `acc = g[j]`, then `acc += dz_r · x_r[j]` in row
/// order, then `g[j] = acc` — the row-at-a-time sums, bit for bit.
struct GradientSum<'m, 'g> {
    model: &'m LogisticRegression,
    g: &'g mut [f64],
    with_loss: bool,
    total: f64,
}

impl BlockVisitor for GradientSum<'_, '_> {
    fn block<const R: usize>(&mut self, z: &[f64; R], rows: &[(&[f64], f64); R]) {
        let mut dz = [0.0; R];
        for ((dzr, &zr), &(_, y)) in dz.iter_mut().zip(z).zip(rows) {
            let p = sigmoid(zr);
            if self.with_loss {
                self.total += self.model.row_loss(p, y);
            }
            *dzr = self.model.row_dz(p, y);
        }
        let (g, bias) = self.g.split_at_mut(self.model.num_features);
        // Rows cut to the gradient's length, so the coordinate loop runs
        // without bounds checks and vectorizes across coordinates (each
        // lane still adds its own coordinate's terms in row order).
        let xs: [&[f64]; R] = std::array::from_fn(|r| &rows[r].0[..g.len()]);
        for j in 0..g.len() {
            let mut acc = g[j];
            for r in 0..R {
                acc += dz[r] * xs[r][j];
            }
            g[j] = acc;
        }
        if let Some(gb) = bias.first_mut() {
            let mut acc = *gb;
            for &dzr in &dz {
                acc += dzr;
            }
            *gb = acc;
        }
    }
}

impl Model for LogisticRegression {
    fn dim(&self) -> usize {
        self.num_features + 1
    }

    fn loss(&self, params: &Vector, batch: &Batch) -> f64 {
        assert!(!batch.is_empty(), "loss over an empty batch is undefined");
        let mut sum = LossSum {
            model: self,
            total: 0.0,
        };
        self.walk(params, batch, &mut sum);
        sum.total / batch.len() as f64
    }

    fn gradient_into(&self, params: &Vector, batch: &Batch, out: &mut Vector) {
        assert!(
            !batch.is_empty(),
            "gradient over an empty batch is undefined"
        );
        self.gradient_sum(params, batch, out, false);
    }

    fn loss_and_gradient_into(&self, params: &Vector, batch: &Batch, out: &mut Vector) -> f64 {
        assert!(!batch.is_empty(), "loss over an empty batch is undefined");
        self.gradient_sum(params, batch, out, true) / batch.len() as f64
    }

    fn predict(&self, params: &Vector, features: &[f64]) -> f64 {
        sigmoid(self.raw(params, features))
    }

    /// Classifies the rows of `dataset` a panel of [`PANEL_ROWS`] rows at
    /// a time, over the dataset's cached [`RowPanels`]: each row's margin
    /// is the one [`Model::predict`] computes, bit for bit, and the
    /// threshold is `sigmoid(z) >= 0.5` exactly (an exact sign test,
    /// taking the `exp` only for margins within `1e-9` below zero), so the
    /// count is the per-row one.
    ///
    /// # Panics
    ///
    /// Panics if a non-empty `dataset` has fewer features than the model.
    fn count_correct(&self, params: &Vector, dataset: &Dataset) -> usize {
        if dataset.is_empty() {
            return 0;
        }
        assert!(
            dataset.num_features() >= self.num_features,
            "the dataset has fewer features than the model"
        );
        let (cols, labels) = (dataset.num_features(), dataset.labels());
        match dataset.row_panels() {
            RowPanels::F32(values) => self.count_panels(params, values, cols, labels),
            RowPanels::F64(values) => self.count_panels(params, values, cols, labels),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::finite_difference_gap;
    use dpbyz_data::synthetic;
    use dpbyz_tensor::Prng;

    #[test]
    fn sigmoid_properties() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!(sigmoid(100.0) > 0.999_999);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
        // Symmetry: σ(-z) = 1 - σ(z).
        for z in [-3.0, -0.5, 0.7, 2.0] {
            assert!((sigmoid(-z) - (1.0 - sigmoid(z))).abs() < 1e-12);
        }
    }

    #[test]
    fn dim_includes_bias() {
        let m = LogisticRegression::new(68, LossKind::SigmoidMse);
        assert_eq!(m.dim(), 69);
    }

    #[test]
    fn gradient_matches_finite_differences_mse() {
        let mut rng = Prng::seed_from_u64(1);
        let ds = synthetic::phishing_like(&mut rng, 20);
        let m = LogisticRegression::new(ds.num_features(), LossKind::SigmoidMse);
        let params = rng.normal_vector(m.dim(), 0.5);
        let gap = finite_difference_gap(&m, &params, &ds.full_batch(), 1e-5);
        assert!(gap < 1e-7, "gap {gap}");
    }

    #[test]
    fn gradient_matches_finite_differences_xent() {
        let mut rng = Prng::seed_from_u64(2);
        let ds = synthetic::phishing_like(&mut rng, 20);
        let m = LogisticRegression::new(ds.num_features(), LossKind::CrossEntropy);
        let params = rng.normal_vector(m.dim(), 0.5);
        let gap = finite_difference_gap(&m, &params, &ds.full_batch(), 1e-5);
        assert!(gap < 1e-6, "gap {gap}");
    }

    #[test]
    fn zero_params_predict_half() {
        let m = LogisticRegression::new(3, LossKind::SigmoidMse);
        let p = m.predict(&Vector::zeros(4), &[0.2, -0.4, 1.0]);
        assert_eq!(p, 0.5);
    }

    #[test]
    fn gradient_descends_loss() {
        let mut rng = Prng::seed_from_u64(3);
        let ds = synthetic::phishing_like(&mut rng, 200);
        let m = LogisticRegression::new(ds.num_features(), LossKind::SigmoidMse);
        let batch = ds.full_batch();
        let mut params = Vector::zeros(m.dim());
        let l0 = m.loss(&params, &batch);
        for _ in 0..50 {
            let g = m.gradient(&params, &batch);
            params.axpy(-2.0, &g);
        }
        let l1 = m.loss(&params, &batch);
        assert!(l1 < l0, "loss did not decrease: {l0} -> {l1}");
    }

    fn bits(v: &Vector) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The row-at-a-time reference: one `raw` margin per row, loss and
    /// gradient accumulated in row order.
    fn reference(m: &LogisticRegression, params: &Vector, batch: &Batch) -> (f64, Vector) {
        let mut total = 0.0;
        let mut g = Vector::zeros(m.dim());
        for i in 0..batch.len() {
            let (x, y) = batch.example(i);
            let p = sigmoid(m.raw(params, x));
            total += m.row_loss(p, y);
            let dz = m.row_dz(p, y);
            for (j, &xj) in x.iter().enumerate() {
                g[j] += dz * xj;
            }
            g[m.num_features] += dz;
        }
        g.scale(1.0 / batch.len() as f64);
        (total / batch.len() as f64, g)
    }

    /// Batches of every length in `0..=17` (zero to two 8-row blocks plus
    /// every remainder): copied selections of distinct rows, copied
    /// selections that repeat rows, and in-place selections drawn with
    /// replacement from a 5-row dataset, which repeat rows too.
    fn batches_of_every_length(rng: &mut Prng) -> Vec<Batch> {
        use dpbyz_data::sampler::{BatchSource, DatasetSource, SamplingMode};
        use std::sync::Arc;

        let ds = synthetic::phishing_like(rng, 40);
        let mut small = DatasetSource::new(
            Arc::new(synthetic::phishing_like(rng, 5)),
            SamplingMode::WithReplacement,
        );
        let mut batches = Vec::new();
        for len in 0..=17 {
            let distinct: Vec<usize> = (0..len).map(|i| (7 * i + len) % ds.len()).collect();
            let repeating: Vec<usize> = (0..len).map(|i| (i * i) % 3).collect();
            batches.push(ds.batch(&distinct));
            batches.push(ds.batch(&repeating));
            if len > 0 {
                batches.push(small.next_batch(len, rng));
            }
        }
        batches
    }

    /// Every row a walk visits, as `(margin bits, x, y)`, and the size of
    /// every block it came in.
    #[derive(Default)]
    struct Recorder {
        rows: Vec<(u64, Vec<f64>, f64)>,
        blocks: Vec<usize>,
    }

    impl BlockVisitor for Recorder {
        fn block<const R: usize>(&mut self, z: &[f64; R], rows: &[(&[f64], f64); R]) {
            self.blocks.push(R);
            for (&zr, &(x, y)) in z.iter().zip(rows) {
                self.rows.push((zr.to_bits(), x.to_vec(), y));
            }
        }
    }

    /// The panel count equals the trait's default, `predict` thresholded
    /// row by row, at every length 0..=17, on `f32` panels (ternary
    /// features) and `f64` panels (Gaussian ones), for random, huge,
    /// infinite and NaN parameters.
    #[test]
    fn blocked_count_correct_matches_per_row_predict() {
        let mut rng = Prng::seed_from_u64(7);
        let k = synthetic::PHISHING_FEATURES;
        let datasets = [
            synthetic::phishing_like(&mut rng, 40),
            synthetic::gaussian_blobs(&mut rng, 40, k, 1.0),
        ];
        assert!(matches!(datasets[0].row_panels(), RowPanels::F32(_)));
        assert!(matches!(datasets[1].row_panels(), RowPanels::F64(_)));
        let m = LogisticRegression::new(k, LossKind::SigmoidMse);
        let d = m.dim();
        // A margin of -1e-20 is negative, yet its sigmoid rounds to
        // exactly 0.5, so the row is predicted positive: the threshold is
        // `sigmoid(z) >= 0.5`, not `z >= 0`.
        assert_eq!(sigmoid(-1e-20), 0.5);
        let mut tiny = Vector::zeros(d);
        tiny[d - 1] = -1e-20;
        let mut mixed = rng.normal_vector(d, 0.5);
        mixed[0] = f64::INFINITY;
        mixed[1] = f64::NEG_INFINITY;
        mixed[2] = f64::NAN;
        let params = [
            rng.normal_vector(d, 0.5),
            tiny.clone(),
            rng.normal_vector(d, 0.5).scaled(1e300),
            Vector::filled(d, 1e300),
            Vector::filled(d, -1e300),
            Vector::filled(d, f64::INFINITY),
            Vector::filled(d, f64::NEG_INFINITY),
            Vector::filled(d, f64::NAN),
            mixed,
        ];
        for ds in &datasets {
            for len in 0..=17 {
                let rows: Vec<usize> = (0..len).map(|i| (5 * i + len) % ds.len()).collect();
                let subset = ds.subset(&rows);
                for p in &params {
                    let per_row = subset
                        .labels()
                        .iter()
                        .enumerate()
                        .filter(|&(i, &y)| (m.predict(p, subset.example(i).0) >= 0.5) == (y == 1.0))
                        .count();
                    assert_eq!(
                        m.count_correct(p, &subset),
                        per_row,
                        "{len} rows, params {:?}",
                        &p.as_slice()[..3]
                    );
                }
                let positives = subset.labels().iter().filter(|&&y| y == 1.0).count();
                assert_eq!(m.count_correct(&tiny, &subset), positives, "{len} rows");
            }
        }
    }

    #[test]
    fn predicts_positive_is_the_sigmoid_threshold() {
        let mut margins = vec![0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        for k in -1074..=10 {
            let z = 2f64.powi(k);
            for z in [z, -z] {
                margins.extend([z, z.next_up(), z.next_down()]);
            }
        }
        for z in margins {
            assert_eq!(predicts_positive(z), sigmoid(z) >= 0.5, "z = {z:e}");
        }
    }

    #[test]
    fn fused_and_blocked_paths_match_row_reference_bitwise() {
        let mut rng = Prng::seed_from_u64(5);
        let batches = batches_of_every_length(&mut rng);
        for kind in [LossKind::SigmoidMse, LossKind::CrossEntropy] {
            let m = LogisticRegression::new(synthetic::PHISHING_FEATURES, kind);
            let params = rng.normal_vector(m.dim(), 0.5);
            for batch in &batches {
                let len = batch.len();
                // The blocked margins, visited in row order, are the
                // row-at-a-time margins bit for bit: whole 8-row blocks
                // first, then the leftover rows one at a time.
                let mut seen = Recorder::default();
                m.walk(&params, batch, &mut seen);
                let expected: Vec<_> = batch
                    .iter()
                    .map(|(x, y)| (m.raw(&params, x).to_bits(), x.to_vec(), y))
                    .collect();
                assert_eq!(seen.rows, expected, "{kind:?}, {len} rows");
                let mut sizes = vec![MARGIN_BLOCK; len / MARGIN_BLOCK];
                sizes.resize(sizes.len() + len % MARGIN_BLOCK, 1);
                assert_eq!(seen.blocks, sizes, "{kind:?}, {len} rows");
                if len == 0 {
                    continue;
                }
                let (ref_loss, ref_grad) = reference(&m, &params, batch);
                let loss = m.loss(&params, batch);
                let mut grad = Vector::filled(5, -1.0);
                m.gradient_into(&params, batch, &mut grad);
                let mut fused_grad = Vector::filled(3, 9.0);
                let fused_loss = m.loss_and_gradient_into(&params, batch, &mut fused_grad);
                assert_eq!(loss.to_bits(), ref_loss.to_bits(), "{kind:?}, {len} rows");
                assert_eq!(
                    fused_loss.to_bits(),
                    ref_loss.to_bits(),
                    "{kind:?}, {len} rows"
                );
                assert_eq!(bits(&grad), bits(&ref_grad), "{kind:?}, {len} rows");
                assert_eq!(bits(&fused_grad), bits(&ref_grad), "{kind:?}, {len} rows");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        use dpbyz_tensor::Matrix;
        let m = LogisticRegression::new(2, LossKind::SigmoidMse);
        let empty = Batch::new(Matrix::zeros(0, 2), vec![]).unwrap();
        let _ = m.loss(&Vector::zeros(3), &empty);
    }
}
