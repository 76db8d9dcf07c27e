//! A one-hidden-layer perceptron for binary classification.
//!
//! The paper's dimensionality argument targets models with `d ≈ 10⁴…10⁸`
//! parameters; this MLP lets the benchmarks exercise that regime (e.g.
//! 68 inputs × 512 hidden ⇒ d ≈ 35 k) without pulling in a deep-learning
//! framework.

use crate::logistic::sigmoid;
use crate::Model;
use dpbyz_data::Batch;
use dpbyz_tensor::{Prng, Vector};
use serde::{Deserialize, Serialize};

/// Hidden-layer activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
}

impl Activation {
    fn apply(self, z: f64) -> f64 {
        match self {
            Activation::Tanh => z.tanh(),
            Activation::Relu => z.max(0.0),
        }
    }

    fn derivative(self, z: f64) -> f64 {
        match self {
            Activation::Tanh => {
                let t = z.tanh();
                1.0 - t * t
            }
            Activation::Relu => {
                if z > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// `inputs → hidden (activation) → sigmoid`, trained with cross-entropy.
///
/// Parameter layout (row-major):
/// `[W1 (hidden × inputs), b1 (hidden), w2 (hidden), b2 (1)]`,
/// so `dim = hidden·inputs + 2·hidden + 1`.
///
/// # Example
///
/// ```
/// use dpbyz_models::{Activation, Mlp, Model};
///
/// let m = Mlp::new(68, 16, Activation::Tanh);
/// assert_eq!(m.dim(), 68 * 16 + 2 * 16 + 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mlp {
    inputs: usize,
    hidden: usize,
    activation: Activation,
}

impl Mlp {
    /// Creates an MLP with the given layer sizes.
    ///
    /// # Panics
    ///
    /// Panics if `inputs == 0` or `hidden == 0`.
    pub fn new(inputs: usize, hidden: usize, activation: Activation) -> Self {
        assert!(inputs > 0 && hidden > 0, "layer sizes must be positive");
        Mlp {
            inputs,
            hidden,
            activation,
        }
    }

    /// Hidden-layer width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    // Parameter-layout offsets.
    fn off_b1(&self) -> usize {
        self.hidden * self.inputs
    }
    fn off_w2(&self) -> usize {
        self.off_b1() + self.hidden
    }
    fn off_b2(&self) -> usize {
        self.off_w2() + self.hidden
    }

    /// Forward pass returning (pre-activations `z1`, activations `a1`,
    /// output probability).
    fn forward(&self, params: &Vector, x: &[f64]) -> (Vec<f64>, Vec<f64>, f64) {
        debug_assert_eq!(x.len(), self.inputs);
        let p = params.as_slice();
        let mut z1 = vec![0.0; self.hidden];
        let mut a1 = vec![0.0; self.hidden];
        for h in 0..self.hidden {
            let row = &p[h * self.inputs..(h + 1) * self.inputs];
            let mut z = p[self.off_b1() + h];
            for (w, xi) in row.iter().zip(x) {
                z += w * xi;
            }
            z1[h] = z;
            a1[h] = self.activation.apply(z);
        }
        let mut z2 = p[self.off_b2()];
        for h in 0..self.hidden {
            z2 += p[self.off_w2() + h] * a1[h];
        }
        (z1, a1, sigmoid(z2))
    }
}

impl Model for Mlp {
    fn dim(&self) -> usize {
        self.hidden * self.inputs + 2 * self.hidden + 1
    }

    fn loss(&self, params: &Vector, batch: &Batch) -> f64 {
        assert!(!batch.is_empty(), "loss over an empty batch is undefined");
        let mut total = 0.0;
        for i in 0..batch.len() {
            let (x, y) = batch.example(i);
            let (_, _, p) = self.forward(params, x);
            let p = p.clamp(1e-12, 1.0 - 1e-12);
            total += -(y * p.ln() + (1.0 - y) * (1.0 - p).ln());
        }
        total / batch.len() as f64
    }

    fn gradient_into(&self, params: &Vector, batch: &Batch, out: &mut Vector) {
        assert!(
            !batch.is_empty(),
            "gradient over an empty batch is undefined"
        );
        let p = params.as_slice();
        out.resize(self.dim(), 0.0);
        out.fill(0.0);
        let g = out.as_mut_slice();
        for i in 0..batch.len() {
            let (x, y) = batch.example(i);
            let (z1, a1, prob) = self.forward(params, x);
            // Cross-entropy through sigmoid: dL/dz2 = p − y.
            let dz2 = prob - y;
            g[self.off_b2()] += dz2;
            for h in 0..self.hidden {
                g[self.off_w2() + h] += dz2 * a1[h];
                let da1 = dz2 * p[self.off_w2() + h];
                let dz1 = da1 * self.activation.derivative(z1[h]);
                g[self.off_b1() + h] += dz1;
                let row = &mut g[h * self.inputs..(h + 1) * self.inputs];
                for (gw, xi) in row.iter_mut().zip(x) {
                    *gw += dz1 * xi;
                }
            }
        }
        out.scale(1.0 / batch.len() as f64);
    }

    fn predict(&self, params: &Vector, features: &[f64]) -> f64 {
        self.forward(params, features).2
    }

    fn init_params(&self, rng: &mut Prng) -> Vector {
        // Xavier/Glorot-style scaling breaks hidden-unit symmetry.
        let s1 = (1.0 / self.inputs as f64).sqrt();
        let s2 = (1.0 / self.hidden as f64).sqrt();
        let mut v = Vector::zeros(self.dim());
        for j in 0..self.off_b1() {
            v[j] = rng.normal(0.0, s1);
        }
        for h in 0..self.hidden {
            v[self.off_w2() + h] = rng.normal(0.0, s2);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::finite_difference_gap;
    use dpbyz_data::synthetic;
    use dpbyz_tensor::Prng;

    #[test]
    fn dim_formula() {
        let m = Mlp::new(68, 512, Activation::Tanh);
        assert_eq!(m.dim(), 68 * 512 + 2 * 512 + 1);
        assert_eq!(m.hidden(), 512);
    }

    #[test]
    fn gradient_matches_finite_differences_tanh() {
        let mut rng = Prng::seed_from_u64(1);
        let ds = synthetic::gaussian_blobs(&mut rng, 12, 4, 2.0);
        let m = Mlp::new(4, 5, Activation::Tanh);
        let params = m.init_params(&mut rng);
        let gap = finite_difference_gap(&m, &params, &ds.full_batch(), 1e-5);
        assert!(gap < 1e-5, "gap {gap}");
    }

    #[test]
    fn gradient_matches_finite_differences_relu() {
        let mut rng = Prng::seed_from_u64(2);
        let ds = synthetic::gaussian_blobs(&mut rng, 12, 4, 2.0);
        let m = Mlp::new(4, 5, Activation::Relu);
        // Nudge parameters away from the ReLU kink to keep the numeric
        // derivative valid.
        let params = m.init_params(&mut rng).map(|x| x + 0.05);
        let gap = finite_difference_gap(&m, &params, &ds.full_batch(), 1e-6);
        assert!(gap < 1e-4, "gap {gap}");
    }

    #[test]
    fn init_breaks_symmetry() {
        let mut rng = Prng::seed_from_u64(3);
        let m = Mlp::new(3, 4, Activation::Tanh);
        let p = m.init_params(&mut rng);
        // First-layer rows must differ.
        let r0 = &p.as_slice()[0..3];
        let r1 = &p.as_slice()[3..6];
        assert_ne!(r0, r1);
    }

    #[test]
    fn learns_blobs() {
        let mut rng = Prng::seed_from_u64(4);
        let ds = synthetic::gaussian_blobs(&mut rng, 400, 2, 4.0);
        let m = Mlp::new(2, 8, Activation::Tanh);
        let mut params = m.init_params(&mut rng);
        let batch = ds.full_batch();
        for _ in 0..300 {
            let g = m.gradient(&params, &batch);
            params.axpy(-0.5, &g);
        }
        let acc = crate::metrics::accuracy(&m, &params, &ds);
        assert!(acc > 0.95, "accuracy {acc}");
    }
}
