//! Logistic regression — the paper's evaluation model (§5.1).

use crate::Model;
use dpbyz_data::Batch;
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

    /// Calls `visit(z, x, y)` for every row of `batch` in order, where `z`
    /// is the row's margin `raw(params, x)`, bit for bit. Margins are
    /// computed [`MARGIN_BLOCK`] rows at a time with one accumulator per
    /// row: each row still sums bias first, then features left to right,
    /// but the block's dependent add chains overlap instead of running
    /// back to back. The rows left over after the last block go one at a
    /// time.
    fn for_each_margin(
        &self,
        params: &Vector,
        batch: &Batch,
        mut visit: impl FnMut(f64, &[f64], f64),
    ) {
        let w = params.as_slice();
        let (w, bias) = (&w[..self.num_features], w[self.num_features]);
        let blocked = batch.len() - batch.len() % MARGIN_BLOCK;
        for start in (0..blocked).step_by(MARGIN_BLOCK) {
            let rows: [(&[f64], f64); MARGIN_BLOCK] = std::array::from_fn(|r| {
                let (x, y) = batch.example(start + r);
                (&x[..w.len()], y)
            });
            let mut z = [bias; MARGIN_BLOCK];
            for (j, &wj) in w.iter().enumerate() {
                for (zr, (x, _)) in z.iter_mut().zip(&rows) {
                    *zr += wj * x[j];
                }
            }
            for (zr, (x, y)) in z.into_iter().zip(rows) {
                visit(zr, x, y);
            }
        }
        for i in blocked..batch.len() {
            let (x, y) = batch.example(i);
            visit(self.raw(params, x), x, y);
        }
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

    /// Adds `dz · [x, 1]` into the gradient accumulator `g`.
    fn accumulate(&self, g: &mut [f64], dz: f64, x: &[f64]) {
        for (gj, &xj) in g.iter_mut().zip(x) {
            *gj += dz * xj;
        }
        g[self.num_features] += dz;
    }
}

impl Model for LogisticRegression {
    fn dim(&self) -> usize {
        self.num_features + 1
    }

    fn loss(&self, params: &Vector, batch: &Batch) -> f64 {
        assert!(!batch.is_empty(), "loss over an empty batch is undefined");
        let mut total = 0.0;
        self.for_each_margin(params, batch, |z, _, y| {
            total += self.row_loss(sigmoid(z), y);
        });
        total / batch.len() as f64
    }

    fn gradient_into(&self, params: &Vector, batch: &Batch, out: &mut Vector) {
        assert!(
            !batch.is_empty(),
            "gradient over an empty batch is undefined"
        );
        out.resize(self.dim(), 0.0);
        out.fill(0.0);
        let g = out.as_mut_slice();
        self.for_each_margin(params, batch, |z, x, y| {
            self.accumulate(g, self.row_dz(sigmoid(z), y), x);
        });
        out.scale(1.0 / batch.len() as f64);
    }

    fn loss_and_gradient_into(&self, params: &Vector, batch: &Batch, out: &mut Vector) -> f64 {
        assert!(!batch.is_empty(), "loss over an empty batch is undefined");
        out.resize(self.dim(), 0.0);
        out.fill(0.0);
        let g = out.as_mut_slice();
        let mut total = 0.0;
        self.for_each_margin(params, batch, |z, x, y| {
            let p = sigmoid(z);
            total += self.row_loss(p, y);
            self.accumulate(g, self.row_dz(p, y), x);
        });
        out.scale(1.0 / batch.len() as f64);
        total / batch.len() as f64
    }

    fn predict(&self, params: &Vector, features: &[f64]) -> f64 {
        sigmoid(self.raw(params, features))
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
                // row-at-a-time margins bit for bit.
                let mut margins = Vec::new();
                m.for_each_margin(&params, batch, |z, x, y| {
                    margins.push((z.to_bits(), x.to_vec(), y));
                });
                let expected: Vec<_> = batch
                    .iter()
                    .map(|(x, y)| (m.raw(&params, x).to_bits(), x.to_vec(), y))
                    .collect();
                assert_eq!(margins, expected, "{kind:?}, {len} rows");
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
