//! Logistic regression — the paper's evaluation model (§5.1).

use crate::Model;
use dpbyz_data::{Batch, Dataset};
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

    /// The configured loss.
    pub fn loss_kind(&self) -> LossKind {
        self.loss
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

    /// Walks rows `0..len` of `row` in [`MARGIN_BLOCK`]-row blocks, then
    /// the rows left over after the last block as blocks of one, handing
    /// each block's margins and rows to `visit` in row order. Each margin
    /// is `raw(params, x)` bit for bit: one accumulator per row, bias
    /// first, then features left to right, but a block's dependent add
    /// chains overlap instead of running back to back.
    fn walk<'a, V: BlockVisitor>(
        &self,
        params: &Vector,
        len: usize,
        row: impl Fn(usize) -> (&'a [f64], f64),
        visit: &mut V,
    ) {
        let blocked = len - len % MARGIN_BLOCK;
        for start in (0..blocked).step_by(MARGIN_BLOCK) {
            self.margin_block::<MARGIN_BLOCK, V>(params, start, &row, visit);
        }
        for i in blocked..len {
            self.margin_block::<1, V>(params, i, &row, visit);
        }
    }

    /// The margins of the `R` rows from `start`, handed to `visit`.
    fn margin_block<'a, const R: usize, V: BlockVisitor>(
        &self,
        params: &Vector,
        start: usize,
        row: &impl Fn(usize) -> (&'a [f64], f64),
        visit: &mut V,
    ) {
        let w = params.as_slice();
        let (w, bias) = (&w[..self.num_features], w[self.num_features]);
        let rows: [(&[f64], f64); R] = std::array::from_fn(|r| row(start + r));
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

    /// [`LogisticRegression::walk`] over the rows of `batch`.
    fn walk_batch<V: BlockVisitor>(&self, params: &Vector, batch: &Batch, visit: &mut V) {
        self.walk(params, batch.len(), |i| batch.example(i), visit);
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
        self.walk_batch(params, batch, &mut sum);
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

/// Counts the rows whose prediction `sigmoid(z) >= 0.5` matches the label
/// `y == 1.0`.
struct CorrectCount(usize);

impl BlockVisitor for CorrectCount {
    fn block<const R: usize>(&mut self, z: &[f64; R], rows: &[(&[f64], f64); R]) {
        for (&zr, &(_, y)) in z.iter().zip(rows) {
            self.0 += usize::from((sigmoid(zr) >= 0.5) == (y == 1.0));
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
        self.walk_batch(params, batch, &mut sum);
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

    fn count_correct(&self, params: &Vector, dataset: &Dataset) -> usize {
        let mut count = CorrectCount(0);
        self.walk(params, dataset.len(), |i| dataset.example(i), &mut count);
        count.0
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
        assert_eq!(m.loss_kind(), LossKind::SigmoidMse);
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

    #[test]
    fn blocked_count_correct_matches_per_row_predict() {
        let mut rng = Prng::seed_from_u64(7);
        let ds = synthetic::phishing_like(&mut rng, 40);
        let m = LogisticRegression::new(synthetic::PHISHING_FEATURES, LossKind::SigmoidMse);
        // A margin of -1e-20 is negative, yet its sigmoid rounds to
        // exactly 0.5, so the row is predicted positive: the threshold is
        // `sigmoid(z) >= 0.5`, not `z >= 0`.
        assert_eq!(sigmoid(-1e-20), 0.5);
        let mut tiny = Vector::zeros(m.dim());
        tiny[m.dim() - 1] = -1e-20;
        let params = [rng.normal_vector(m.dim(), 0.5), tiny.clone()];
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
                assert_eq!(m.count_correct(p, &subset), per_row, "{len} rows");
            }
            let positives = subset.labels().iter().filter(|&&y| y == 1.0).count();
            assert_eq!(m.count_correct(&tiny, &subset), positives, "{len} rows");
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
                m.walk_batch(&params, batch, &mut seen);
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
