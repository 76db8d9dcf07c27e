//! Batch sampling: how each simulated worker draws its training batch
//! `ξ_t^(i)` at every step.
//!
//! The paper's model has every honest worker sample an i.i.d. batch from the
//! data distribution `D` at each step. [`BatchSource`] abstracts over "where
//! batches come from": a finite dataset sampled with replacement
//! ([`DatasetSource`]), a finite dataset visited in reshuffled epochs, or an
//! infinite analytic distribution (see
//! [`synthetic::MeanEstimationSource`](crate::synthetic::MeanEstimationSource)).
//!
//! A [`Batch`] is a selection of rows. A dataset source writes only the
//! row indices into it and points it at its shared dataset; the
//! mean-estimation source synthesizes fresh rows into a dataset the batch
//! owns.

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
        }
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Appends the next batch's row selection to the empty `indices`,
    /// drawing from the RNG exactly as the historical allocating path did.
    fn fill_indices(&mut self, batch_size: usize, rng: &mut Prng, indices: &mut Vec<usize>) {
        let n = self.dataset.len();
        match self.mode {
            SamplingMode::WithReplacement => {
                for _ in 0..batch_size {
                    indices.push(rng.index(n));
                }
            }
            SamplingMode::EpochShuffle => {
                while indices.len() < batch_size {
                    if self.pos >= self.perm.len() {
                        self.perm.clear();
                        self.perm.extend(0..n);
                        rng.shuffle(&mut self.perm);
                        self.pos = 0;
                    }
                    let take = (batch_size - indices.len()).min(self.perm.len() - self.pos);
                    indices.extend_from_slice(&self.perm[self.pos..self.pos + take]);
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
        // Only the row indices are written: the batch reads the rows in
        // place from the shared dataset.
        let indices = out.select_from(&self.dataset);
        self.fill_indices(batch_size, rng, indices);
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
        assert_eq!(b.num_features(), 3);
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
        let mut seen: Vec<f64> = b1.iter().chain(b2.iter()).map(|(_, y)| y).collect();
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
    fn a_reused_batch_does_not_depend_on_what_it_held() {
        use crate::synthetic::{MeanEstimation, MeanEstimationSource};

        let mean = |m: Vec<f64>, sigma| MeanEstimationSource(MeanEstimation::new(m.into(), sigma));
        let sources = || -> Vec<Box<dyn BatchSource>> {
            vec![
                Box::new(DatasetSource::new(
                    dataset(20),
                    SamplingMode::WithReplacement,
                )),
                Box::new(mean(vec![1.0, -1.0, 0.5], 1.0)),
                Box::new(DatasetSource::new(dataset(9), SamplingMode::EpochShuffle)),
                Box::new(mean(vec![2.0; 3], 0.5)),
                Box::new(DatasetSource::new(dataset(20), SamplingMode::EpochShuffle)),
            ]
        };
        // One recycled buffer is refilled by every source in turn, with
        // growing and shrinking batch sizes, so it switches between
        // synthesized batches and selections of different datasets. Twin
        // sources on a twin stream draw each batch into a fresh buffer.
        let (mut recycling, mut fresh) = (sources(), sources());
        let mut rng = Prng::seed_from_u64(17);
        let mut fresh_rng = Prng::seed_from_u64(17);
        let mut reused = Batch::empty();
        for size in [5, 2, 7, 1, 6, 3, 4, 8] {
            for (source, twin) in recycling.iter_mut().zip(fresh.iter_mut()) {
                source.next_batch_into(size, &mut rng, &mut reused);
                let expected = twin.next_batch(size, &mut fresh_rng);
                assert_eq!(reused.len(), size);
                assert_eq!(reused, expected);
            }
        }
        // A synthesized batch whose rows are still shared is replaced,
        // not rewritten: the earlier holder keeps its rows.
        let mut src = mean(vec![0.0], 1.0);
        src.next_batch_into(3, &mut rng, &mut reused);
        let kept = reused.clone();
        let snapshot: Vec<f64> = kept.iter().map(|(x, _)| x[0]).collect();
        src.next_batch_into(3, &mut rng, &mut reused);
        assert_eq!(kept.iter().map(|(x, _)| x[0]).collect::<Vec<_>>(), snapshot);
        assert_ne!(kept, reused);
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
