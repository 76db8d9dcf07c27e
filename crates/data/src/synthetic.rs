//! Seeded synthetic dataset generators.
//!
//! # The `phishing` substitution
//!
//! The paper trains on the LIBSVM `phishing` dataset (11 055 examples,
//! 68 features scaled to `[0, 1]`, ≈ 55 % positive class, on which a d = 69
//! logistic model reaches ≈ 93 % test accuracy). That file is not shipped
//! here, so [`phishing_like`] generates a statistically equivalent stand-in:
//!
//! * same shape — 68 features quantized to `{0, 0.5, 1}` (the original
//!   features are ternary categoricals min-max scaled), same default size;
//! * same class balance (≈ 55 % positive);
//! * same learnability — features are noisy views of a 1-D latent
//!   "phishiness" score, label is a noisy threshold of the same latent, so
//!   a linear model recovers ≈ 92–94 % accuracy.
//!
//! Everything the paper measures (gradient variance/norm ratios, the effect
//! of DP noise and Byzantine gradients on a convex model with d = 69) only
//! depends on these statistics, not on the semantics of phishing URLs.
//! The real file can still be used via [`crate::libsvm::parse_file`].

use crate::sampler::BatchSource;
use crate::{Batch, Dataset};
use dpbyz_tensor::{Matrix, Prng, Vector};

/// Number of features in the LIBSVM `phishing` dataset.
pub const PHISHING_FEATURES: usize = 68;

/// Number of examples in the LIBSVM `phishing` dataset.
pub const PHISHING_SIZE: usize = 11_055;

/// Generates a `phishing`-like binary classification dataset (see the
/// module docs for the substitution rationale).
///
/// # Example
///
/// ```
/// use dpbyz_data::synthetic;
/// use dpbyz_tensor::Prng;
///
/// let ds = synthetic::phishing_like(&mut Prng::seed_from_u64(1), 500);
/// assert_eq!(ds.num_features(), 68);
/// let pos = ds.positive_fraction();
/// assert!(pos > 0.4 && pos < 0.7);
/// ```
pub fn phishing_like(rng: &mut Prng, n: usize) -> Dataset {
    // Per-feature loading on the latent score and bias, fixed per dataset.
    let loadings = rng.normal_vector(PHISHING_FEATURES, 1.0);
    let biases = rng.normal_vector(PHISHING_FEATURES, 0.5);

    let mut features = Matrix::zeros(n, PHISHING_FEATURES);
    let mut labels = Vec::with_capacity(n);
    let mut noise = [0.0; PHISHING_FEATURES];
    for i in 0..n {
        // Latent "phishiness" of the example.
        let z = rng.normal(0.0, 1.0);
        // Label: noisy threshold, shifted to get ≈55% positives.
        let y = if z + rng.normal(0.0, 0.35) > -0.15 {
            1.0
        } else {
            0.0
        };
        labels.push(y);
        rng.fill_normal_into(&mut noise, 0.0, 0.8);
        for j in 0..PHISHING_FEATURES {
            let u = loadings[j] * z + biases[j] + noise[j];
            // Ternary quantization at the ±0.43 tertile boundaries of a
            // standard normal, then scaled to {0, 0.5, 1}.
            let q = if u < -0.43 {
                0.0
            } else if u > 0.43 {
                1.0
            } else {
                0.5
            };
            features.set(i, j, q);
        }
    }
    Dataset::from_parts(features, labels)
}

/// Two isotropic Gaussian blobs at `±(separation/2, 0, …, 0)`, labelled
/// `1.0`/`0.0` — the simplest linearly separable benchmark.
pub fn gaussian_blobs(rng: &mut Prng, n: usize, dim: usize, separation: f64) -> Dataset {
    assert!(dim > 0, "dim must be positive");
    let mut features = Matrix::zeros(n, dim);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let y = rng.bernoulli(0.5);
        let center = if y {
            separation / 2.0
        } else {
            -separation / 2.0
        };
        for j in 0..dim {
            let mean = if j == 0 { center } else { 0.0 };
            features.set(i, j, rng.normal(mean, 1.0));
        }
        labels.push(if y { 1.0 } else { 0.0 });
    }
    Dataset::from_parts(features, labels)
}

/// Linear regression data `y = <w*, x> + N(0, noise²)` with `x ~ N(0, I)`.
/// Returns the dataset and the ground-truth weights `w*`.
pub fn linear_regression(rng: &mut Prng, n: usize, dim: usize, noise: f64) -> (Dataset, Vector) {
    assert!(dim > 0, "dim must be positive");
    let w_star = rng.normal_vector(dim, 1.0);
    let mut features = Matrix::zeros(n, dim);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let x = rng.normal_vector(dim, 1.0);
        labels.push(w_star.dot(&x) + rng.normal(0.0, noise));
        for j in 0..dim {
            features.set(i, j, x[j]);
        }
    }
    (Dataset::from_parts(features, labels), w_star)
}

/// The data distribution of Theorem 1's lower-bound construction:
/// `D = N(x̄, (σ²/d) · I_d)` with cost `Q(w) = ½·E‖w − x‖²`.
///
/// Sampling is exact and infinite — each call draws a fresh point, matching
/// the paper's model where workers sample from `D` itself rather than a
/// finite dataset.
#[derive(Debug, Clone)]
pub struct MeanEstimation {
    mean: Vector,
    sigma: f64,
}

impl MeanEstimation {
    /// Creates the distribution `N(mean, (sigma²/d)·I_d)`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is empty or `sigma` is negative.
    pub fn new(mean: Vector, sigma: f64) -> Self {
        assert!(!mean.is_empty(), "mean must be non-empty");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        MeanEstimation { mean, sigma }
    }

    /// A standard instance: `x̄` has unit-scale coordinates drawn from the
    /// RNG, total variance `sigma²` spread over `dim` coordinates.
    pub fn random_instance(rng: &mut Prng, dim: usize, sigma: f64) -> Self {
        Self::new(rng.normal_vector(dim, 1.0), sigma)
    }

    /// Dimension `d`.
    pub fn dim(&self) -> usize {
        self.mean.dim()
    }

    /// The true mean `x̄` — also the minimizer `w*` of `Q`.
    pub fn true_mean(&self) -> &Vector {
        &self.mean
    }

    /// The total standard deviation parameter `σ` (per-coordinate std is
    /// `σ/√d`, so that `E‖x − x̄‖² = σ²`).
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws a batch of `b` points as a [`Batch`] (labels are all zero —
    /// the mean-estimation cost ignores them).
    pub fn sample_batch(&self, b: usize, rng: &mut Prng) -> Batch {
        let mut out = Batch::empty();
        self.sample_batch_into(b, rng, &mut out);
        out
    }

    /// Draws a batch of `b` points into `out`, consuming the RNG exactly
    /// as [`MeanEstimation::sample_batch`] does (one row of `dim` normals
    /// per example, in row order). The points are written into the
    /// batch's own rows, reused when no one else holds them.
    fn sample_batch_into(&self, b: usize, rng: &mut Prng, out: &mut Batch) {
        let dim = self.dim();
        let per_coord = self.sigma / (dim as f64).sqrt();
        let features = out.own_rows(b, dim);
        for i in 0..b {
            let row = features.row_mut(i);
            rng.fill_normal_into(row, 0.0, per_coord);
            // IEEE addition commutes, so this is `mean + noise` bit for bit.
            for (x, &m) in row.iter_mut().zip(self.mean.as_slice()) {
                *x += m;
            }
        }
    }
}

/// [`BatchSource`] adapter for [`MeanEstimation`] so the distributed trainer
/// can run Theorem 1's workload directly.
#[derive(Debug, Clone)]
pub struct MeanEstimationSource(pub MeanEstimation);

impl BatchSource for MeanEstimationSource {
    fn num_features(&self) -> usize {
        self.0.dim()
    }

    fn next_batch_into(&mut self, batch_size: usize, rng: &mut Prng, out: &mut Batch) {
        self.0.sample_batch_into(batch_size, rng, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbyz_tensor::stats::Welford;

    #[test]
    fn phishing_like_shape_and_balance() {
        let mut rng = Prng::seed_from_u64(1);
        let ds = phishing_like(&mut rng, 2000);
        assert_eq!(ds.len(), 2000);
        assert_eq!(ds.num_features(), PHISHING_FEATURES);
        let pos = ds.positive_fraction();
        assert!(pos > 0.45 && pos < 0.65, "positive fraction {pos}");
        // All features quantized to {0, 0.5, 1}.
        for i in 0..ds.len() {
            for &x in ds.example(i).0 {
                assert!(x == 0.0 || x == 0.5 || x == 1.0);
            }
        }
    }

    #[test]
    fn phishing_like_is_seeded() {
        let a = phishing_like(&mut Prng::seed_from_u64(3), 50);
        let b = phishing_like(&mut Prng::seed_from_u64(3), 50);
        assert_eq!(a, b);
        let c = phishing_like(&mut Prng::seed_from_u64(4), 50);
        assert_ne!(a, c);
    }

    #[test]
    fn phishing_like_features_carry_signal() {
        // Features must correlate with the label, otherwise nothing is
        // learnable. Check that at least a quarter of features have
        // |mean(x|y=1) - mean(x|y=0)| > 0.05.
        let mut rng = Prng::seed_from_u64(5);
        let ds = phishing_like(&mut rng, 3000);
        let mut informative = 0;
        for j in 0..ds.num_features() {
            let (mut s1, mut n1, mut s0, mut n0) = (0.0, 0, 0.0, 0);
            for i in 0..ds.len() {
                let (x, y) = ds.example(i);
                if y == 1.0 {
                    s1 += x[j];
                    n1 += 1;
                } else {
                    s0 += x[j];
                    n0 += 1;
                }
            }
            if (s1 / n1 as f64 - s0 / n0 as f64).abs() > 0.05 {
                informative += 1;
            }
        }
        assert!(
            informative >= PHISHING_FEATURES / 4,
            "only {informative} informative features"
        );
    }

    #[test]
    fn blobs_are_separated() {
        let mut rng = Prng::seed_from_u64(6);
        let ds = gaussian_blobs(&mut rng, 1000, 4, 6.0);
        // With separation 6 the first coordinate alone classifies well.
        let correct = (0..ds.len())
            .filter(|&i| {
                let (x, y) = ds.example(i);
                (x[0] > 0.0) == (y == 1.0)
            })
            .count();
        assert!(correct as f64 / ds.len() as f64 > 0.95);
    }

    #[test]
    fn linear_regression_labels_match_weights() {
        let mut rng = Prng::seed_from_u64(7);
        let (ds, w) = linear_regression(&mut rng, 500, 3, 0.0);
        for i in 0..ds.len() {
            let (x, y) = ds.example(i);
            let pred: f64 = x.iter().zip(w.iter()).map(|(a, b)| a * b).sum();
            assert!((pred - y).abs() < 1e-9);
        }
    }

    #[test]
    fn mean_estimation_moments() {
        let mut rng = Prng::seed_from_u64(8);
        let d = 16;
        let dist = MeanEstimation::random_instance(&mut rng, d, 2.0);
        assert_eq!(dist.dim(), d);
        // E‖x − x̄‖² = σ² = 4.
        let mut w = Welford::new();
        for (x, _) in dist.sample_batch(4000, &mut rng).iter() {
            w.push(Vector::from(x).l2_distance_squared(dist.true_mean()));
        }
        assert!((w.mean() - 4.0).abs() < 0.2, "E||x-mean||^2 = {}", w.mean());
    }

    #[test]
    fn mean_estimation_batch_and_source() {
        let mut rng = Prng::seed_from_u64(9);
        let dist = MeanEstimation::new(Vector::from(vec![1.0, -1.0]), 1.0);
        let b = dist.sample_batch(5, &mut rng);
        assert_eq!(b.len(), 5);
        assert!(b.iter().all(|(x, y)| x.len() == 2 && y == 0.0));

        let mut src = MeanEstimationSource(dist);
        assert_eq!(src.num_features(), 2);
        let b2 = src.next_batch(3, &mut rng);
        assert_eq!(b2.len(), 3);
    }

    #[test]
    #[should_panic(expected = "sigma must be non-negative")]
    fn mean_estimation_rejects_negative_sigma() {
        let _ = MeanEstimation::new(Vector::from(vec![0.0]), -1.0);
    }
}
