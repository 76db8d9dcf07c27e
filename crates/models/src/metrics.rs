//! Evaluation metrics.

use crate::Model;
use dpbyz_data::Dataset;
use dpbyz_tensor::Vector;

/// Binary classification accuracy of `model(params)` on `dataset`,
/// thresholding the predicted probability at 0.5 ([`Model::count_correct`]).
///
/// This is the paper's "cross-accuracy over the entire testing set". For
/// logistic regression the first call on a dataset lays out its
/// [`Dataset::row_panels`], which later calls on the same dataset (every
/// evaluation of every run sharing it) reuse.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn accuracy(model: &dyn Model, params: &Vector, dataset: &Dataset) -> f64 {
    assert!(!dataset.is_empty(), "accuracy over an empty dataset");
    model.count_correct(params, dataset) as f64 / dataset.len() as f64
}

/// Average loss of `model(params)` over the full dataset.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn full_loss(model: &dyn Model, params: &Vector, dataset: &Dataset) -> f64 {
    model.loss(params, &dataset.full_batch())
}

/// Confusion counts `(true_pos, true_neg, false_pos, false_neg)`.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn confusion(
    model: &dyn Model,
    params: &Vector,
    dataset: &Dataset,
) -> (usize, usize, usize, usize) {
    assert!(!dataset.is_empty(), "confusion over an empty dataset");
    let (mut tp, mut tn, mut fp, mut fne) = (0, 0, 0, 0);
    for i in 0..dataset.len() {
        let (x, y) = dataset.example(i);
        let pred = model.predict(params, x) >= 0.5;
        match (pred, y == 1.0) {
            (true, true) => tp += 1,
            (false, false) => tn += 1,
            (true, false) => fp += 1,
            (false, true) => fne += 1,
        }
    }
    (tp, tn, fp, fne)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LogisticRegression, LossKind};
    use dpbyz_data::Dataset;
    use dpbyz_tensor::Matrix;

    fn ds() -> Dataset {
        let x = Matrix::from_rows(&[vec![1.0], vec![-1.0], vec![2.0], vec![-2.0]]).unwrap();
        Dataset::new(x, vec![1.0, 0.0, 1.0, 0.0]).unwrap()
    }

    #[test]
    fn perfect_classifier_scores_one() {
        let m = LogisticRegression::new(1, LossKind::SigmoidMse);
        // w = 10, b = 0 separates perfectly.
        let params = Vector::from(vec![10.0, 0.0]);
        assert_eq!(accuracy(&m, &params, &ds()), 1.0);
        let (tp, tn, fp, fne) = confusion(&m, &params, &ds());
        assert_eq!((tp, tn, fp, fne), (2, 2, 0, 0));
    }

    #[test]
    fn inverted_classifier_scores_zero() {
        let m = LogisticRegression::new(1, LossKind::SigmoidMse);
        let params = Vector::from(vec![-10.0, 0.0]);
        assert_eq!(accuracy(&m, &params, &ds()), 0.0);
    }

    #[test]
    fn chance_level_for_zero_params() {
        let m = LogisticRegression::new(1, LossKind::SigmoidMse);
        // p = 0.5 everywhere ⇒ predicted positive everywhere (>= 0.5).
        let acc = accuracy(&m, &Vector::zeros(2), &ds());
        assert_eq!(acc, 0.5);
    }

    #[test]
    fn full_loss_matches_batch_loss() {
        let m = LogisticRegression::new(1, LossKind::SigmoidMse);
        let params = Vector::from(vec![1.0, 0.0]);
        let d = ds();
        assert_eq!(full_loss(&m, &params, &d), m.loss(&params, &d.full_batch()));
    }
}
