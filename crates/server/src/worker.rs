//! Worker-side computation: sample → gradient → clip → (momentum) → noise.

use dpbyz_data::sampler::BatchSource;
use dpbyz_data::Batch;
use dpbyz_dp::Mechanism;
use dpbyz_models::Model;
use dpbyz_tensor::{Prng, Vector};
use std::sync::Arc;

/// What one honest worker produces in one step.
///
/// In the zero-copy round engine these are long-lived buffers: the trainer
/// keeps one `WorkerOutput` per worker alive across rounds, the worker
/// refills it in place ([`HonestWorker::compute_into`]), and the server
/// takes the vectors by move (swapping its own recycled buffers back in).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerOutput {
    /// The clipped (and, in worker-momentum mode, momentum-ed) gradient
    /// *before* the DP randomizer — never leaves the worker in the real
    /// protocol; recorded by the simulator for VN diagnostics.
    pub pre_noise: Vector,
    /// The gradient actually submitted to the server (Eq. 7).
    pub submitted: Vector,
    /// Loss of the current model on this worker's sampled batch — the
    /// paper's per-step training-loss metric.
    pub batch_loss: f64,
}

/// An honest worker `W_i`: samples an i.i.d. batch, computes the mean
/// gradient (Eq. 4), clips it to `G_max`, perturbs it with its local
/// randomizer `M_i` (Eq. 6 — "noise only after clipping", §5.1), and
/// optionally folds the *sanitized* gradient into a local momentum buffer
/// (El-Mhamdi et al. 2021, the paper's \[16\]).
///
/// The clip → noise → momentum order matters twice over:
/// * privacy — the momentum buffer only ever sees `(ε, δ)`-DP outputs, so
///   each step's guarantee follows from post-processing;
/// * fidelity — noise *accumulates* in the momentum (variance
///   `×1/(1−m²)`), which is how the paper's Fig. 2 configuration shows the
///   DP/Byzantine antagonism at `m = 0.99`.
pub struct HonestWorker {
    id: u32,
    model: Arc<dyn Model>,
    source: Box<dyn BatchSource>,
    mechanism: Arc<dyn Mechanism>,
    clip: f64,
    /// Worker-side momentum coefficient (0 ⇒ plain gradient submission,
    /// i.e. server-side momentum mode).
    momentum: f64,
    /// Momentum of the sanitized (noisy) gradients — what is submitted.
    velocity: Vector,
    /// Momentum of the clean clipped gradients — the simulator-only
    /// counterfactual used for VN diagnostics.
    clean_velocity: Vector,
    rng: Prng,
    /// Recycled batch buffer — refilled in place every step.
    batch: Batch,
    /// Recycled clipped-gradient buffer.
    grad: Vector,
    /// Recycled sanitized-gradient buffer.
    noisy: Vector,
}

impl HonestWorker {
    /// Creates a worker.
    ///
    /// # Panics
    ///
    /// Panics if `clip` is not positive or `momentum` outside `[0, 1)`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u32,
        model: Arc<dyn Model>,
        source: Box<dyn BatchSource>,
        mechanism: Arc<dyn Mechanism>,
        clip: f64,
        momentum: f64,
        rng: Prng,
    ) -> Self {
        assert!(clip > 0.0, "clip must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        let dim = model.dim();
        HonestWorker {
            id,
            model,
            source,
            mechanism,
            clip,
            momentum,
            velocity: Vector::zeros(dim),
            clean_velocity: Vector::zeros(dim),
            rng,
            batch: Batch::empty(),
            grad: Vector::zeros(dim),
            noisy: Vector::zeros(dim),
        }
    }

    /// Worker id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Dimension of the model this worker computes gradients for.
    pub fn dim(&self) -> usize {
        self.model.dim()
    }

    /// Runs one step against the broadcast parameters.
    pub fn compute(&mut self, params: &Vector, batch_size: usize) -> WorkerOutput {
        let mut out = WorkerOutput::default();
        self.compute_into(params, batch_size, &mut out);
        out
    }

    /// Runs one step, refilling a caller-provided output buffer — the
    /// zero-copy path both engines drive every round. Internally recycles
    /// the worker's batch and gradient buffers, so at steady state a step
    /// performs no heap allocation (given an in-place mechanism and
    /// `_into`-capable model and source). Bit-identical to
    /// [`HonestWorker::compute`]: same RNG stream, same arithmetic.
    pub fn compute_into(&mut self, params: &Vector, batch_size: usize, out: &mut WorkerOutput) {
        self.source
            .next_batch_into(batch_size, &mut self.rng, &mut self.batch);
        out.batch_loss = self
            .model
            .loss_and_gradient_into(params, &self.batch, &mut self.grad);
        self.grad.clip_l2(self.clip);
        self.noisy.copy_from(&self.grad);
        self.mechanism
            .perturb_in_place(&mut self.noisy, &mut self.rng);
        if self.momentum > 0.0 {
            self.velocity.scale(self.momentum);
            self.velocity.axpy(1.0, &self.noisy);
            self.clean_velocity.scale(self.momentum);
            self.clean_velocity.axpy(1.0, &self.grad);
            out.pre_noise.copy_from(&self.clean_velocity);
            out.submitted.copy_from(&self.velocity);
        } else {
            out.pre_noise.copy_from(&self.grad);
            out.submitted.copy_from(&self.noisy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbyz_data::sampler::{DatasetSource, SamplingMode};
    use dpbyz_data::synthetic;
    use dpbyz_dp::{GaussianMechanism, NoNoise};
    use dpbyz_models::{LogisticRegression, LossKind};

    fn worker(mechanism: Arc<dyn Mechanism>, momentum: f64, seed: u64) -> HonestWorker {
        let mut rng = Prng::seed_from_u64(99);
        let ds = Arc::new(synthetic::phishing_like(&mut rng, 200));
        let model = Arc::new(LogisticRegression::new(68, LossKind::SigmoidMse));
        HonestWorker::new(
            0,
            model,
            Box::new(DatasetSource::new(ds, SamplingMode::WithReplacement)),
            mechanism,
            1e-2,
            momentum,
            Prng::seed_from_u64(seed),
        )
    }

    #[test]
    fn clips_to_g_max() {
        let mut w = worker(Arc::new(NoNoise), 0.0, 1);
        let out = w.compute(&Vector::zeros(69), 10);
        assert!(out.pre_noise.l2_norm() <= 1e-2 + 1e-12);
        // Without noise, submission equals the clipped gradient.
        assert_eq!(out.pre_noise, out.submitted);
        assert!(out.batch_loss > 0.0);
    }

    #[test]
    fn noise_changes_submission_only() {
        let mech = Arc::new(GaussianMechanism::with_sigma(0.1).unwrap());
        let mut w = worker(mech, 0.0, 1);
        let out = w.compute(&Vector::zeros(69), 10);
        assert_ne!(out.pre_noise, out.submitted);
        assert!(out.pre_noise.l2_norm() <= 1e-2 + 1e-12);
        // The submitted gradient's norm is dominated by noise (d·s² >> G²).
        assert!(out.submitted.l2_norm() > 0.1);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = worker(Arc::new(NoNoise), 0.0, 7);
        let mut b = worker(Arc::new(NoNoise), 0.0, 7);
        let pa = Vector::zeros(69);
        assert_eq!(a.compute(&pa, 5), b.compute(&pa, 5));
    }

    #[test]
    fn worker_momentum_accumulates() {
        let mut w = worker(Arc::new(NoNoise), 0.9, 3);
        let params = Vector::zeros(69);
        let o1 = w.compute(&params, 10);
        let o2 = w.compute(&params, 10);
        // With momentum the second submission is larger (same-direction
        // gradients accumulate).
        assert!(o2.pre_noise.l2_norm() > o1.pre_noise.l2_norm() * 1.2);
    }

    #[test]
    fn larger_batches_reduce_gradient_spread_at_fixed_params() {
        // σ_G ∝ 1/√b, measured at one parameter point — the mechanism
        // behind the §7 "dynamic sampling" extension. Use a loose clip so
        // clipping does not flatten the spread.
        let spread = |batch: usize| -> f64 {
            let mut rng = Prng::seed_from_u64(99);
            let ds = Arc::new(synthetic::phishing_like(&mut rng, 2000));
            let model = Arc::new(LogisticRegression::new(68, LossKind::SigmoidMse));
            let mut w = HonestWorker::new(
                0,
                model,
                Box::new(DatasetSource::new(ds, SamplingMode::WithReplacement)),
                Arc::new(NoNoise),
                1e3,
                0.0,
                Prng::seed_from_u64(5),
            );
            let params = Vector::zeros(69);
            let grads: Vec<Vector> = (0..40)
                .map(|_| w.compute(&params, batch).pre_noise)
                .collect();
            dpbyz_tensor::stats::empirical_variance_around_mean(&grads)
                .unwrap()
                .sqrt()
        };
        let s5 = spread(5);
        let s80 = spread(80);
        // √(80/5) = 4 expected; accept a generous window.
        assert!(
            s5 / s80 > 2.5,
            "spread did not fall with batch size: b5 {s5}, b80 {s80}"
        );
    }

    #[test]
    #[should_panic(expected = "clip must be positive")]
    fn rejects_zero_clip() {
        let mut rng = Prng::seed_from_u64(0);
        let ds = Arc::new(synthetic::phishing_like(&mut rng, 50));
        let model = Arc::new(LogisticRegression::new(68, LossKind::SigmoidMse));
        let _ = HonestWorker::new(
            0,
            model,
            Box::new(DatasetSource::new(ds, SamplingMode::WithReplacement)),
            Arc::new(NoNoise),
            0.0,
            0.0,
            Prng::seed_from_u64(0),
        );
    }
}
