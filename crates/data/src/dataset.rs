//! In-memory labelled datasets, and batches as selections of their rows.

use crate::{DataError, RowPanels};
use dpbyz_tensor::{Matrix, Prng};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A labelled dataset: one feature row per example plus a scalar label.
///
/// Labels are `f64`; binary classification uses `0.0`/`1.0` (the convention
/// of the logistic model in `dpbyz-models`).
///
/// A dataset also caches its rows laid out as [`RowPanels`], built on
/// the first call to [`Dataset::row_panels`] and shared by everything that
/// holds the same dataset (every run and sweep thread over one
/// `Arc<Dataset>` test set). The cache costs one more copy of the
/// features, at half their size when they are exact in `f32`; a dataset
/// that is never evaluated never builds it. Clones, splits and subsets
/// start without it, and equality and `Debug` ignore it.
///
/// # Example
///
/// ```
/// use dpbyz_data::Dataset;
/// use dpbyz_tensor::Matrix;
///
/// let x = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
/// let ds = Dataset::new(x, vec![0.0, 1.0]).unwrap();
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.num_features(), 2);
/// ```
pub struct Dataset {
    features: Matrix,
    labels: Vec<f64>,
    panels: OnceLock<RowPanels>,
}

impl Dataset {
    /// Creates a dataset from a feature matrix and matching labels.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::LengthMismatch`] if `features.rows() !=
    /// labels.len()`.
    pub fn new(features: Matrix, labels: Vec<f64>) -> Result<Self, DataError> {
        if features.rows() != labels.len() {
            return Err(DataError::LengthMismatch {
                features: features.rows(),
                labels: labels.len(),
            });
        }
        Ok(Dataset::from_parts(features, labels))
    }

    /// A dataset from a feature matrix and labels of matching length, for
    /// the crate's generators, which build both to the same length.
    pub(crate) fn from_parts(features: Matrix, labels: Vec<f64>) -> Self {
        debug_assert_eq!(features.rows(), labels.len());
        Dataset {
            features,
            labels,
            panels: OnceLock::new(),
        }
    }

    /// A dataset with no examples and no features.
    fn empty() -> Self {
        Dataset::from_parts(Matrix::zeros(0, 0), Vec::new())
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of features per example.
    pub fn num_features(&self) -> usize {
        self.features.cols()
    }

    /// The feature matrix.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// The label vector.
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// The `i`-th example as `(features, label)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn example(&self, i: usize) -> (&[f64], f64) {
        (self.features.row(i), self.labels[i])
    }

    /// The feature rows laid out as [`RowPanels`], built on the first call
    /// (one allocation of exact size) and cached: concurrent first calls
    /// build once, and every later call returns the same panels.
    pub fn row_panels(&self) -> &RowPanels {
        self.panels.get_or_init(|| RowPanels::new(&self.features))
    }

    /// Fraction of examples with label `1.0` (class balance diagnostic).
    pub fn positive_fraction(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.labels.iter().filter(|&&y| y == 1.0).count() as f64 / self.len() as f64
    }

    /// A batch holding a copy of the rows selected by `indices`
    /// (duplicates allowed).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn batch(&self, indices: &[usize]) -> Batch {
        Batch::owning(self.subset(indices))
    }

    /// The whole dataset as one batch (a copy).
    pub fn full_batch(&self) -> Batch {
        Batch::owning(self.clone())
    }

    /// Splits into `(train, test)` with `train_fraction` of the examples in
    /// the train set, after a seeded shuffle.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidFraction`] unless `0 < train_fraction <
    /// 1`, and [`DataError::Empty`] if either side would be empty.
    pub fn split(
        &self,
        train_fraction: f64,
        rng: &mut Prng,
    ) -> Result<(Dataset, Dataset), DataError> {
        if !(0.0 < train_fraction && train_fraction < 1.0) {
            return Err(DataError::InvalidFraction(train_fraction));
        }
        let n = self.len();
        let n_train = (n as f64 * train_fraction).round() as usize;
        if n_train == 0 || n_train == n {
            return Err(DataError::Empty);
        }
        let mut idx: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut idx);
        let train_idx = &idx[..n_train];
        let test_idx = &idx[n_train..];
        Ok((self.subset(train_idx), self.subset(test_idx)))
    }

    /// Deterministic split at an exact example count (no shuffle) — used to
    /// mirror the paper's fixed 8 400 / 2 655 partition of `phishing`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Empty`] if `n_train` is 0 or ≥ `len()`.
    pub fn split_at(&self, n_train: usize) -> Result<(Dataset, Dataset), DataError> {
        if n_train == 0 || n_train >= self.len() {
            return Err(DataError::Empty);
        }
        let train: Vec<usize> = (0..n_train).collect();
        let test: Vec<usize> = (n_train..self.len()).collect();
        Ok((self.subset(&train), self.subset(&test)))
    }

    /// The sub-dataset selected by `indices`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset::from_parts(
            self.features.select_rows(indices),
            indices.iter().map(|&i| self.labels[i]).collect(),
        )
    }

    /// Returns a copy with every feature column min-max scaled to `[0, 1]`.
    /// Constant columns become all-zero.
    pub fn min_max_scaled(&self) -> Dataset {
        let rows = self.features.rows();
        let cols = self.features.cols();
        let mut lo = vec![f64::INFINITY; cols];
        let mut hi = vec![f64::NEG_INFINITY; cols];
        for i in 0..rows {
            for (j, &x) in self.features.row(i).iter().enumerate() {
                lo[j] = lo[j].min(x);
                hi[j] = hi[j].max(x);
            }
        }
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            let src = self.features.row(i);
            for j in 0..cols {
                let range = hi[j] - lo[j];
                let v = if range > 0.0 {
                    (src[j] - lo[j]) / range
                } else {
                    0.0
                };
                out.set(i, j, v);
            }
        }
        Dataset::from_parts(out, self.labels.clone())
    }
}

impl Clone for Dataset {
    /// Copies the rows; the copy builds its own panels when evaluated.
    fn clone(&self) -> Self {
        Dataset::from_parts(self.features.clone(), self.labels.clone())
    }
}

impl PartialEq for Dataset {
    fn eq(&self, other: &Dataset) -> bool {
        self.features == other.features && self.labels == other.labels
    }
}

impl fmt::Debug for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dataset")
            .field("features", &self.features)
            .field("labels", &self.labels)
            .finish()
    }
}

/// A mini-batch: the unit a worker computes one stochastic gradient on.
///
/// A batch is a selection of rows, not a copy of them: it holds a shared
/// [`Dataset`] and the index of each selected row, duplicates allowed, so
/// sampling a batch from an in-memory dataset writes only the indices and
/// the model reads every row in place. Generators that synthesize fresh
/// rows (mean estimation) write them into a dataset of the batch's own.
///
/// Equality and `Debug` see the selected rows in order, not which dataset
/// backs them.
#[derive(Clone)]
pub struct Batch {
    dataset: Arc<Dataset>,
    index: Vec<usize>,
}

impl Batch {
    /// Creates a batch holding its own rows (used by tests and generators).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::LengthMismatch`] on inconsistent lengths.
    pub fn new(features: Matrix, labels: Vec<f64>) -> Result<Self, DataError> {
        Ok(Batch::owning(Dataset::new(features, labels)?))
    }

    /// A batch selecting every row of `dataset`, in order.
    fn owning(dataset: Dataset) -> Self {
        Batch {
            index: (0..dataset.len()).collect(),
            dataset: Arc::new(dataset),
        }
    }

    /// An empty batch — the starting buffer for
    /// [`BatchSource::next_batch_into`](crate::sampler::BatchSource::next_batch_into)
    /// recycling loops.
    pub fn empty() -> Self {
        Batch::owning(Dataset::empty())
    }

    /// Points the batch at `dataset`, keeping its `Arc` when it already
    /// does, and returns the cleared row selection for the caller to fill.
    pub(crate) fn select_from(&mut self, dataset: &Arc<Dataset>) -> &mut Vec<usize> {
        if !Arc::ptr_eq(&self.dataset, dataset) {
            self.dataset = Arc::clone(dataset);
        }
        self.index.clear();
        &mut self.index
    }

    /// Makes the batch `rows` fresh rows of `cols` features, all labelled
    /// `0.0`, in a dataset of its own, and returns the feature table for
    /// the caller to fill. A dataset shared with anything else is replaced
    /// by a new one, never cloned; an owned one is reused in place.
    pub(crate) fn own_rows(&mut self, rows: usize, cols: usize) -> &mut Matrix {
        if Arc::get_mut(&mut self.dataset).is_none() {
            self.dataset = Arc::new(Dataset::empty());
        }
        self.index.clear();
        self.index.extend(0..rows);
        // Uniquely owned by now, so this never clones.
        let dataset = Arc::make_mut(&mut self.dataset);
        // The rows are rewritten, so panels laid out from the old ones go.
        dataset.panels.take();
        dataset.labels.clear();
        dataset.labels.resize(rows, 0.0);
        dataset.features.resize(rows, cols, 0.0);
        &mut dataset.features
    }

    /// Number of examples in the batch.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of features per example.
    pub fn num_features(&self) -> usize {
        self.dataset.num_features()
    }

    /// The `i`-th example as `(features, label)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn example(&self, i: usize) -> (&[f64], f64) {
        self.dataset.example(self.index[i])
    }

    /// The examples in order, as `(features, label)`.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], f64)> + '_ {
        self.index.iter().map(|&r| self.dataset.example(r))
    }
}

impl fmt::Debug for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Batch {
    fn eq(&self, other: &Batch) -> bool {
        self.len() == other.len()
            && self.num_features() == other.num_features()
            && self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let x = Matrix::from_rows(&[
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![0.0, 0.0],
        ])
        .unwrap();
        Dataset::new(x, vec![1.0, 0.0, 1.0, 0.0]).unwrap()
    }

    #[test]
    fn construction_validates_lengths() {
        let x = Matrix::zeros(3, 2);
        assert!(Dataset::new(x.clone(), vec![0.0; 3]).is_ok());
        assert!(matches!(
            Dataset::new(x, vec![0.0; 2]),
            Err(DataError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn accessors() {
        let ds = tiny();
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.num_features(), 2);
        assert_eq!(ds.example(2), (&[1.0, 1.0][..], 1.0));
        assert_eq!(ds.positive_fraction(), 0.5);
    }

    fn labels(b: &Batch) -> Vec<f64> {
        b.iter().map(|(_, y)| y).collect()
    }

    #[test]
    fn batch_selection_with_duplicates() {
        let ds = tiny();
        let b = ds.batch(&[0, 0, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(labels(&b), [1.0, 1.0, 0.0]);
        assert_eq!(b.example(2), (&[0.0, 0.0][..], 0.0));
        assert_eq!(b.example(0).0, &[0.0, 1.0]);
    }

    #[test]
    fn a_selection_reads_duplicate_rows_in_place() {
        let ds = Arc::new(tiny());
        let mut b = Batch::empty();
        b.select_from(&ds).extend([2, 0, 2, 2]);
        assert_eq!(b.len(), 4);
        assert_eq!(b.num_features(), 2);
        assert_eq!(labels(&b), [1.0, 1.0, 1.0, 1.0]);
        // The rows are the dataset's own, not copies.
        assert!(std::ptr::eq(b.example(0).0, ds.example(2).0));
        assert!(std::ptr::eq(b.example(3).0, ds.example(2).0));
        assert_eq!(b, ds.batch(&[2, 0, 2, 2]));
    }

    #[test]
    fn batch_new_holds_its_own_rows() {
        let mut x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Batch::new(x.clone(), vec![0.0, 1.0]).unwrap();
        x.set(0, 0, 9.0);
        assert_eq!(b.example(0), (&[1.0, 2.0][..], 0.0));
        assert_eq!(b.example(1), (&[3.0, 4.0][..], 1.0));
        // A clone shares the rows; rewriting one batch's rows leaves the
        // other's alone, because a shared dataset is replaced, not edited.
        let mut c = b.clone();
        c.own_rows(1, 2).row_mut(0).copy_from_slice(&[5.0, 6.0]);
        assert_eq!(c.example(0), (&[5.0, 6.0][..], 0.0));
        assert_eq!(b.example(0), (&[1.0, 2.0][..], 0.0));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn batch_equality_compares_rows_not_the_backing_dataset() {
        let ds = Arc::new(tiny());
        let mut selected = Batch::empty();
        selected.select_from(&ds).extend([3, 1]);
        let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0]]).unwrap();
        let owned = Batch::new(x, vec![0.0, 0.0]).unwrap();
        assert_eq!(selected, owned);
        // Same dataset, different rows: unequal.
        let mut other = Batch::empty();
        other.select_from(&ds).extend([3, 2]);
        assert_ne!(selected, other);
        // Same rows, different labels or lengths: unequal.
        let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0]]).unwrap();
        assert_ne!(selected, Batch::new(x, vec![0.0, 1.0]).unwrap());
        other.select_from(&ds).extend([3]);
        assert_ne!(selected, other);
        assert_eq!(Batch::empty(), Batch::empty());
    }

    #[test]
    fn full_batch_covers_everything() {
        let ds = tiny();
        let b = ds.full_batch();
        assert_eq!(b.len(), ds.len());
        assert_eq!(labels(&b), ds.labels());
    }

    #[test]
    fn split_partitions_without_loss() {
        let ds = tiny();
        let mut rng = Prng::seed_from_u64(1);
        let (train, test) = ds.split(0.5, &mut rng).unwrap();
        assert_eq!(train.len(), 2);
        assert_eq!(test.len(), 2);
        // Same multiset of labels overall.
        let mut all: Vec<f64> = train
            .labels()
            .iter()
            .chain(test.labels())
            .cloned()
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(all, vec![0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn split_rejects_bad_fraction() {
        let ds = tiny();
        let mut rng = Prng::seed_from_u64(1);
        assert!(matches!(
            ds.split(0.0, &mut rng),
            Err(DataError::InvalidFraction(_))
        ));
        assert!(matches!(
            ds.split(1.0, &mut rng),
            Err(DataError::InvalidFraction(_))
        ));
    }

    #[test]
    fn split_is_seeded() {
        let ds = tiny();
        let (a, _) = ds.split(0.5, &mut Prng::seed_from_u64(9)).unwrap();
        let (b, _) = ds.split(0.5, &mut Prng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn split_at_exact_counts() {
        let ds = tiny();
        let (train, test) = ds.split_at(3).unwrap();
        assert_eq!(train.len(), 3);
        assert_eq!(test.len(), 1);
        assert!(ds.split_at(0).is_err());
        assert!(ds.split_at(4).is_err());
    }

    #[test]
    fn min_max_scaling() {
        let x = Matrix::from_rows(&[vec![0.0, 5.0], vec![10.0, 5.0]]).unwrap();
        let ds = Dataset::new(x, vec![0.0, 1.0]).unwrap();
        let s = ds.min_max_scaled();
        assert_eq!(s.features().row(0), &[0.0, 0.0]);
        assert_eq!(s.features().row(1), &[1.0, 0.0]);
    }

    #[test]
    fn copies_of_a_dataset_lay_out_their_own_panels() {
        let ds = tiny();
        let panels = ds.row_panels();
        assert!(std::ptr::eq(panels, ds.row_panels()));
        let clone = ds.clone();
        assert!(clone.panels.get().is_none());
        assert_eq!(clone, ds);
        assert_eq!(clone.row_panels(), panels);
        assert!(!std::ptr::eq(clone.row_panels(), panels));
        let (train, test) = ds.split_at(3).unwrap();
        let subset = ds.subset(&[3, 0]);
        for part in [&train, &test, &subset] {
            assert!(part.panels.get().is_none());
        }
        assert_ne!(subset.row_panels(), panels);
    }

    #[test]
    fn concurrent_first_calls_lay_out_the_panels_once() {
        let ds = tiny();
        let start = std::sync::Barrier::new(2);
        let [a, b] = std::thread::scope(|s| {
            let call = || {
                start.wait();
                std::ptr::from_ref(ds.row_panels()) as usize
            };
            let (a, b) = (s.spawn(call), s.spawn(call));
            [a.join().unwrap(), b.join().unwrap()]
        });
        assert_eq!(a, b);
        assert_eq!(a, std::ptr::from_ref(ds.row_panels()) as usize);
    }

    #[test]
    fn rewriting_a_batchs_own_rows_drops_their_panels() {
        let mut b = Batch::new(Matrix::zeros(2, 2), vec![0.0, 1.0]).unwrap();
        assert_eq!(
            b.dataset.row_panels(),
            &RowPanels::F32(vec![0.0; 16].into())
        );
        b.own_rows(1, 2).row_mut(0).copy_from_slice(&[0.1, 0.5]);
        assert_eq!(
            b.dataset.row_panels(),
            &RowPanels::new(b.dataset.features())
        );
        assert!(matches!(b.dataset.row_panels(), RowPanels::F64(_)));
    }

    #[test]
    fn batch_new_validates() {
        assert!(Batch::new(Matrix::zeros(2, 2), vec![0.0]).is_err());
        let b = Batch::new(Matrix::zeros(0, 2), vec![]).unwrap();
        assert!(b.is_empty());
    }
}
