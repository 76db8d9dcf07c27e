//! Batch sampling: how each simulated worker draws its training batch
//! `ξ_t^(i)` at every step.
//!
//! The paper's model has every honest worker sample an i.i.d. batch from the
//! data distribution `D` at each step. [`BatchSource`] abstracts over "where
//! batches come from": a finite dataset sampled with replacement
//! ([`DatasetSource`]), a finite dataset visited in reshuffled epochs, or an
//! infinite analytic distribution (see
//! [`synthetic::MeanEstimationSource`](crate::synthetic::MeanEstimationSource)).

use crate::{Batch, Dataset};
use dpbyz_tensor::Prng;
use std::sync::Arc;

/// A stream of training batches.
///
/// Implementors must be deterministic given the `Prng` handed in: the
/// trainer derives one independent RNG stream per worker, so runs are
/// reproducible end-to-end.
pub trait BatchSource: Send {
    /// Feature dimension of produced batches.
    fn num_features(&self) -> usize;

    /// Draws the next batch of `batch_size` examples into a caller-provided
    /// buffer — the zero-copy path the worker loop drives every step. The
    /// batch must not depend on what `out` held before the call.
    fn next_batch_into(&mut self, batch_size: usize, rng: &mut Prng, out: &mut Batch);

    /// [`BatchSource::next_batch_into`] with a fresh batch buffer.
    fn next_batch(&mut self, batch_size: usize, rng: &mut Prng) -> Batch {
        let mut out = Batch::empty();
        self.next_batch_into(batch_size, rng, &mut out);
        out
    }
}

/// How a [`DatasetSource`] traverses its dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingMode {
    /// Each batch is drawn uniformly with replacement — i.i.d. sampling,
    /// matching the paper's model (and the variance analysis of Eq. 8).
    WithReplacement,
    /// Without replacement within an epoch; the permutation is reshuffled
    /// when exhausted. Common in practice; included for ablations.
    EpochShuffle,
}

/// A [`BatchSource`] over a finite in-memory dataset.
///
/// # Example
///
/// ```
/// use dpbyz_data::sampler::{BatchSource, DatasetSource, SamplingMode};
/// use dpbyz_data::synthetic;
/// use dpbyz_tensor::Prng;
/// use std::sync::Arc;
///
/// let mut rng = Prng::seed_from_u64(0);
/// let ds = Arc::new(synthetic::phishing_like(&mut rng, 100));
/// let mut src = DatasetSource::new(ds, SamplingMode::WithReplacement);
/// let batch = src.next_batch(10, &mut rng);
/// assert_eq!(batch.len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct DatasetSource {
    dataset: Arc<Dataset>,
    mode: SamplingMode,
    /// Epoch state (only used by `EpochShuffle`).
    perm: Vec<usize>,
    pos: usize,
    /// Reusable index buffer: the next batch's row selection.
    indices: Vec<usize>,
}

impl DatasetSource {
    /// Creates a source over `dataset` with the given traversal mode.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn new(dataset: Arc<Dataset>, mode: SamplingMode) -> Self {
        assert!(!dataset.is_empty(), "cannot sample from an empty dataset");
        DatasetSource {
            dataset,
            mode,
            perm: Vec::new(),
            pos: 0,
            indices: Vec::new(),
        }
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Fills `self.indices` with the next batch's row selection, drawing
    /// from the RNG exactly as the historical allocating path did.
    fn fill_indices(&mut self, batch_size: usize, rng: &mut Prng) {
        let n = self.dataset.len();
        self.indices.clear();
        match self.mode {
            SamplingMode::WithReplacement => {
                for _ in 0..batch_size {
                    self.indices.push(rng.index(n));
                }
            }
            SamplingMode::EpochShuffle => {
                while self.indices.len() < batch_size {
                    if self.pos >= self.perm.len() {
                        self.perm.clear();
                        self.perm.extend(0..n);
                        rng.shuffle(&mut self.perm);
                        self.pos = 0;
                    }
                    let take = (batch_size - self.indices.len()).min(self.perm.len() - self.pos);
                    self.indices
                        .extend_from_slice(&self.perm[self.pos..self.pos + take]);
                    self.pos += take;
                }
            }
        }
    }
}

impl BatchSource for DatasetSource {
    fn num_features(&self) -> usize {
        self.dataset.num_features()
    }

    fn next_batch_into(&mut self, batch_size: usize, rng: &mut Prng, out: &mut Batch) {
        assert!(batch_size > 0, "batch size must be positive");
        self.fill_indices(batch_size, rng);
        self.dataset.batch_into(&self.indices, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic;

    fn dataset(n: usize) -> Arc<Dataset> {
        let mut rng = Prng::seed_from_u64(7);
        Arc::new(synthetic::gaussian_blobs(&mut rng, n, 3, 2.0))
    }

    #[test]
    fn with_replacement_batches_have_right_shape() {
        let ds = dataset(20);
        let mut src = DatasetSource::new(ds, SamplingMode::WithReplacement);
        let mut rng = Prng::seed_from_u64(1);
        let b = src.next_batch(7, &mut rng);
        assert_eq!(b.len(), 7);
        assert_eq!(b.features().cols(), 3);
        assert_eq!(src.num_features(), 3);
    }

    #[test]
    fn with_replacement_is_deterministic() {
        let ds = dataset(20);
        let mut s1 = DatasetSource::new(ds.clone(), SamplingMode::WithReplacement);
        let mut s2 = DatasetSource::new(ds, SamplingMode::WithReplacement);
        let b1 = s1.next_batch(5, &mut Prng::seed_from_u64(3));
        let b2 = s2.next_batch(5, &mut Prng::seed_from_u64(3));
        assert_eq!(b1, b2);
    }

    #[test]
    fn epoch_shuffle_covers_dataset_exactly_once_per_epoch() {
        let ds = dataset(10);
        let mut src = DatasetSource::new(ds.clone(), SamplingMode::EpochShuffle);
        let mut rng = Prng::seed_from_u64(5);
        // Two batches of 5 = one epoch: every example seen exactly once.
        let b1 = src.next_batch(5, &mut rng);
        let b2 = src.next_batch(5, &mut rng);
        let mut seen: Vec<f64> = b1.labels().iter().chain(b2.labels()).cloned().collect();
        let mut expected: Vec<f64> = ds.labels().to_vec();
        seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(seen, expected);
    }

    #[test]
    fn epoch_shuffle_handles_batch_spanning_epochs() {
        let ds = dataset(4);
        let mut src = DatasetSource::new(ds, SamplingMode::EpochShuffle);
        let mut rng = Prng::seed_from_u64(5);
        let b = src.next_batch(10, &mut rng); // 2.5 epochs
        assert_eq!(b.len(), 10);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_panics() {
        let ds = dataset(4);
        let mut src = DatasetSource::new(ds, SamplingMode::WithReplacement);
        src.next_batch(0, &mut Prng::seed_from_u64(0));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        use dpbyz_tensor::Matrix;
        let empty = Arc::new(Dataset::new(Matrix::zeros(0, 2), vec![]).unwrap());
        let _ = DatasetSource::new(empty, SamplingMode::WithReplacement);
    }
}
