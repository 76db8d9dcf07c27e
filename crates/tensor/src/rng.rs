//! Seeded, split-able pseudo-randomness and the samplers used by the
//! differential-privacy mechanisms.
//!
//! All experiment randomness flows through [`Prng`], so a run is a pure
//! function of its seed. The normal and Laplace samplers are implemented
//! in-tree (polar Box–Muller and inverse CDF respectively) because they sit
//! on the privacy-critical path and must be reviewable.

use crate::Vector;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Deviates [`Prng::fill_normal_into`] draws per stack-held chunk before
/// transforming them.
const NORMAL_CHUNK: usize = 64;

/// A deterministic pseudo-random number generator with derivation support.
///
/// Wraps [`StdRng`] and adds:
/// * Gaussian and Laplace sampling (scalar and vector forms),
/// * `derive` — create an independent child stream from a label, so each
///   worker in a simulated deployment gets its own reproducible stream.
///
/// # Example
///
/// ```
/// use dpbyz_tensor::Prng;
///
/// let mut root = Prng::seed_from_u64(1);
/// let mut w0 = root.derive(0);
/// let mut w1 = root.derive(1);
/// assert_ne!(w0.normal(0.0, 1.0), w1.normal(0.0, 1.0));
/// ```
#[derive(Debug)]
pub struct Prng {
    inner: StdRng,
}

impl Prng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        Prng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator identified by `stream`.
    ///
    /// Uses a SplitMix64 finalizer over the parent's next raw output mixed
    /// with the stream id, so children with different ids are decorrelated
    /// and the derivation itself advances the parent deterministically.
    pub fn derive(&mut self, stream: u64) -> Prng {
        let raw: u64 = self.inner.random();
        Prng::seed_from_u64(splitmix64(raw ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform_range requires lo < hi");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires n > 0");
        self.inner.random_range(0..n)
    }

    /// Bernoulli sample with success probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal sample via the polar Box–Muller method.
    fn standard_normal(&mut self) -> f64 {
        // Polar (Marsaglia) method: rejection-sample a point in the unit
        // disk, then transform. One of the two produced deviates is
        // discarded to keep the generator state independent of call parity.
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative.
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        assert!(std >= 0.0, "normal std must be non-negative");
        mean + std * self.standard_normal()
    }

    /// Fills `out` with i.i.d. `N(mean, std²)` samples, bit for bit the
    /// values of calling [`Prng::normal`] once per element in order, and
    /// leaving the generator at the same point of its stream.
    ///
    /// Each chunk of up to 64 elements is drawn in two passes over stack
    /// arrays. The first runs the polar method's rejection loop, keeping
    /// every `(u, s)` pair and advancing its slot only on acceptance, so
    /// the loop has no data-dependent branch. The second applies
    /// `u·√(−2 ln s / s)` to the accepted pairs in one straight pass, so
    /// the `ln` calls no longer stall the generator.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative.
    pub fn fill_normal_into(&mut self, out: &mut [f64], mean: f64, std: f64) {
        assert!(std >= 0.0, "normal std must be non-negative");
        let mut us = [0.0; NORMAL_CHUNK];
        let mut ss = [0.0; NORMAL_CHUNK];
        for chunk in out.chunks_mut(NORMAL_CHUNK) {
            let mut k = 0;
            while k < chunk.len() {
                let u = 2.0 * self.uniform() - 1.0;
                let v = 2.0 * self.uniform() - 1.0;
                let s = u * u + v * v;
                us[k] = u;
                ss[k] = s;
                k += usize::from(s > 0.0 && s < 1.0);
            }
            for ((x, &u), &s) in chunk.iter_mut().zip(&us).zip(&ss) {
                *x = mean + std * (u * (-2.0 * s.ln() / s).sqrt());
            }
        }
    }

    /// Laplace(0, scale) sample via inverse CDF.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is negative.
    pub fn laplace(&mut self, scale: f64) -> f64 {
        assert!(scale >= 0.0, "laplace scale must be non-negative");
        // U uniform on (-1/2, 1/2]; X = -scale * sign(U) * ln(1 - 2|U|).
        let u = self.uniform() - 0.5;
        -scale * u.signum() * (1.0 - 2.0 * u.abs()).max(f64::MIN_POSITIVE).ln()
    }

    /// Exponential(rate) sample via inverse CDF.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    #[cfg(test)]
    fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        -(1.0 - self.uniform()).max(f64::MIN_POSITIVE).ln() / rate
    }

    /// Vector of i.i.d. `N(0, std²)` coordinates — the DP Gaussian noise
    /// vector `y ~ N(0, I_d · s²)` of Eq. (6).
    pub fn normal_vector(&mut self, dim: usize, std: f64) -> Vector {
        let mut v = Vector::zeros(dim);
        self.fill_normal_into(v.as_mut_slice(), 0.0, std);
        v
    }

    /// Vector of i.i.d. Laplace(0, scale) coordinates.
    pub fn laplace_vector(&mut self, dim: usize, scale: f64) -> Vector {
        (0..dim).map(|_| self.laplace(scale)).collect()
    }

    /// Samples `k` indices from `[0, n)` without replacement
    /// (partial Fisher–Yates).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    #[cfg(test)]
    fn sample_without_replacement(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n} without replacement");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

/// SplitMix64 finalizer — a high-quality 64-bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Welford;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Prng::seed_from_u64(7);
        let mut b = Prng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Prng::seed_from_u64(1);
        let mut b = Prng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn derive_is_deterministic_and_decorrelated() {
        let mut root1 = Prng::seed_from_u64(42);
        let mut root2 = Prng::seed_from_u64(42);
        let mut c1 = root1.derive(5);
        let mut c2 = root2.derive(5);
        assert_eq!(c1.uniform(), c2.uniform());

        let mut root3 = Prng::seed_from_u64(42);
        let mut d0 = root3.derive(0);
        assert_ne!(c1.uniform(), d0.uniform());
    }

    #[test]
    fn normal_moments() {
        let mut rng = Prng::seed_from_u64(3);
        let mut w = Welford::new();
        for _ in 0..50_000 {
            w.push(rng.normal(2.0, 3.0));
        }
        assert!((w.mean() - 2.0).abs() < 0.05, "mean {}", w.mean());
        assert!(
            (w.sample_variance() - 9.0).abs() < 0.3,
            "var {}",
            w.sample_variance()
        );
    }

    #[test]
    fn laplace_moments() {
        // Laplace(0, b) has mean 0 and variance 2 b².
        let mut rng = Prng::seed_from_u64(4);
        let mut w = Welford::new();
        for _ in 0..50_000 {
            w.push(rng.laplace(1.5));
        }
        assert!(w.mean().abs() < 0.05, "mean {}", w.mean());
        assert!(
            (w.sample_variance() - 4.5).abs() < 0.25,
            "var {}",
            w.sample_variance()
        );
    }

    #[test]
    fn exponential_moments() {
        let mut rng = Prng::seed_from_u64(5);
        let mut w = Welford::new();
        for _ in 0..50_000 {
            w.push(rng.exponential(2.0));
        }
        assert!((w.mean() - 0.5).abs() < 0.02, "mean {}", w.mean());
    }

    #[test]
    fn normal_tail_fraction() {
        // P(|Z| > 1.96) ≈ 0.05 for a standard normal.
        let mut rng = Prng::seed_from_u64(6);
        let n = 50_000;
        let tail = (0..n)
            .filter(|_| rng.standard_normal().abs() > 1.96)
            .count();
        let frac = tail as f64 / n as f64;
        assert!((frac - 0.05).abs() < 0.01, "tail fraction {frac}");
    }

    #[test]
    fn normal_vector_shape_and_scale() {
        let mut rng = Prng::seed_from_u64(8);
        let v = rng.normal_vector(10_000, 0.5);
        assert_eq!(v.dim(), 10_000);
        // E‖v‖² = d·s².
        let expected = 10_000.0 * 0.25;
        assert!((v.l2_norm_squared() - expected).abs() / expected < 0.1);
    }

    #[test]
    fn fill_normal_into_matches_the_scalar_loop_bitwise() {
        let chunk = NORMAL_CHUNK;
        for len in [0, 1, chunk - 1, chunk, chunk + 1, 69, 10_000] {
            for (mean, std) in [(0.0, 1.0), (-1.5, 0.3), (2.0, 0.0)] {
                let seed = len as u64 ^ 0x5EED;
                let mut scalar = Prng::seed_from_u64(seed);
                let expected: Vec<u64> = (0..len)
                    .map(|_| scalar.normal(mean, std).to_bits())
                    .collect();
                let mut vector = Prng::seed_from_u64(seed);
                // A dirty buffer: every element must be overwritten.
                let mut out = vec![f64::NAN; len];
                vector.fill_normal_into(&mut out, mean, std);
                let got: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, expected, "len {len}, N({mean}, {std}²)");
                // Both generators stand at the same point of the stream.
                assert_eq!(
                    vector.uniform().to_bits(),
                    scalar.uniform().to_bits(),
                    "len {len}: stream position diverged"
                );
            }
        }
    }

    #[test]
    fn normal_vector_is_the_scalar_loop() {
        let mut scalar = Prng::seed_from_u64(21);
        let expected: Vec<u64> = (0..100)
            .map(|_| scalar.normal(0.0, 0.7).to_bits())
            .collect();
        let mut vector = Prng::seed_from_u64(21);
        let got: Vec<u64> = vector
            .normal_vector(100, 0.7)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(got, expected);
        assert_eq!(vector.uniform().to_bits(), scalar.uniform().to_bits());
    }

    #[test]
    #[should_panic(expected = "normal std must be non-negative")]
    fn fill_normal_into_rejects_negative_std() {
        Prng::seed_from_u64(0).fill_normal_into(&mut [0.0; 3], 0.0, -1.0);
    }

    #[test]
    fn uniform_range_bounds() {
        let mut rng = Prng::seed_from_u64(9);
        for _ in 0..1000 {
            let x = rng.uniform_range(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn sample_without_replacement_unique_and_in_range() {
        let mut rng = Prng::seed_from_u64(10);
        let s = rng.sample_without_replacement(100, 30);
        assert_eq!(s.len(), 30);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 30);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Prng::seed_from_u64(12);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = Prng::seed_from_u64(13);
        let hits = (0..10_000).filter(|_| rng.bernoulli(0.3)).count();
        let frac = hits as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.02, "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_too_many_panics() {
        Prng::seed_from_u64(0).sample_without_replacement(3, 4);
    }
}
