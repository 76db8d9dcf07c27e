//! Byzantine attack library for `dp-byz-sgd`.
//!
//! The paper evaluates two state-of-the-art attacks (§5.1), both of the form
//! *every Byzantine worker submits the same* `g_t + ν·a_t`, where `g_t`
//! approximates the true gradient:
//!
//! * [`LittleIsEnough`] (Baruch et al. 2019) — `a_t = −σ_t`, the negated
//!   coordinate-wise standard deviation of the honest gradient
//!   distribution; default `ν = 1.5` (the paper's setting).
//! * [`FallOfEmpires`] (Xie et al. 2019) — submits `(1 − ν)·g_t`
//!   (`a_t = −g_t`); default `ν = 1.1` (i.e. `ν′ = 0.1` in the original
//!   paper's notation).
//!
//! Beyond the paper's pair, the zoo carries
//! [`InnerProductManipulation`] (the ε-form of FoE's descent-direction
//! reversal) and the norm-[`Rescaling`] probe for radius-tuned defenses,
//! plus baselines [`SignFlip`], [`RandomNoise`], [`Zero`], [`LargeNorm`]
//! and [`Mimic`] for sweeps.
//!
//! Attackers are *omniscient colluders*: they observe the gradients the
//! honest workers submit in the current round (the strongest standard
//! threat model, matching the paper's experiments). Under DP those
//! observations are the *noisy* submissions — an attacker cannot see
//! through another worker's local randomizer; the
//! [`AttackContext::pre_noise_gradients`] field (ablation) optionally
//! exposes the pre-noise gradients instead.
//!
//! # Example
//!
//! ```
//! use dpbyz_attacks::{Attack, AttackContext, LittleIsEnough};
//! use dpbyz_tensor::{Prng, Vector};
//!
//! let honest = vec![
//!     Vector::from(vec![1.0, 0.0]),
//!     Vector::from(vec![1.2, 0.1]),
//!     Vector::from(vec![0.8, -0.1]),
//! ];
//! let ctx = AttackContext::new(&honest, 0);
//! let forged = LittleIsEnough::default().forge(&ctx, &mut Prng::seed_from_u64(0));
//! assert_eq!(forged.dim(), 2);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod inversion;

use dpbyz_tensor::{stats, Prng, Vector};

/// Everything a colluding Byzantine coalition can see in one round.
#[derive(Debug)]
pub struct AttackContext<'a> {
    /// Gradients submitted by the honest workers this round (post-noise
    /// when DP is on — what actually crosses the network).
    pub honest_gradients: &'a [Vector],
    /// Pre-noise honest gradients, for the (unrealistic) ablation where
    /// the attacker sees through the local randomizers. `None` in the
    /// realistic default.
    pub pre_noise_gradients: Option<&'a [Vector]>,
    /// Training step `t`.
    pub step: usize,
}

impl<'a> AttackContext<'a> {
    /// A realistic context: the coalition observes the submitted gradients.
    pub fn new(honest_gradients: &'a [Vector], step: usize) -> Self {
        AttackContext {
            honest_gradients,
            pre_noise_gradients: None,
            step,
        }
    }

    /// The gradients the attack statistics are computed from (pre-noise if
    /// exposed, submitted otherwise).
    pub fn observed(&self) -> &'a [Vector] {
        self.pre_noise_gradients.unwrap_or(self.honest_gradients)
    }

    /// Coordinate-wise mean of the observed honest gradients — the
    /// coalition's estimate `g_t` of the true gradient.
    ///
    /// # Panics
    ///
    /// Panics if no honest gradients are visible.
    pub fn honest_mean(&self) -> Vector {
        // lint:allow(panic-unwrap, reason = "the engine invokes attacks only with a non-empty honest cohort (n > f is validated at configuration)")
        Vector::mean(self.observed()).expect("attack requires visible honest gradients")
    }

    /// Writes [`AttackContext::honest_mean`] into `out` without allocating
    /// (when `out` already has capacity) — the buffer-reusing counterpart
    /// used by the in-place [`Attack::forge_into`] implementations.
    ///
    /// # Panics
    ///
    /// Panics if no honest gradients are visible.
    pub fn honest_mean_into(&self, out: &mut Vector) {
        // lint:allow(panic-unwrap, reason = "the engine invokes attacks only with a non-empty honest cohort (n > f is validated at configuration)")
        Vector::mean_into(self.observed(), out).expect("attack requires visible honest gradients");
    }

    /// Coordinate-wise std `σ_t` of the observed honest gradients
    /// (zero vector when only one honest gradient is visible).
    pub fn honest_std(&self) -> Vector {
        let obs = self.observed();
        if obs.len() < 2 {
            return Vector::zeros(obs.first().map_or(0, Vector::dim));
        }
        stats::coordinate_std(obs).expect("validated input") // lint:allow(panic-unwrap, reason = "the engine invokes attacks only with a non-empty honest cohort, so the std is defined")
    }
}

/// A Byzantine attack: forges the single gradient that every Byzantine
/// worker submits this round.
pub trait Attack: Send + Sync {
    /// Attack name for reports.
    fn name(&self) -> &'static str;

    /// Forges the Byzantine gradient for this round into a caller-provided
    /// buffer — the output-reuse path the zero-copy round engine drives
    /// (the server keeps one forged-vector buffer alive across rounds).
    /// The result must not depend on what `out` held before the call.
    fn forge_into(&self, ctx: &AttackContext<'_>, rng: &mut Prng, out: &mut Vector);

    /// [`Attack::forge_into`] with a fresh output buffer.
    fn forge(&self, ctx: &AttackContext<'_>, rng: &mut Prng) -> Vector {
        let mut out = Vector::default();
        self.forge_into(ctx, rng, &mut out);
        out
    }
}

/// "A Little Is Enough" (Baruch et al. 2019): submit
/// `mean(honest) − ν·std(honest)` — small coordinated shifts hiding inside
/// the honest variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LittleIsEnough {
    /// Shift factor ν (paper default 1.5).
    pub nu: f64,
}

impl LittleIsEnough {
    /// Creates the attack with an explicit ν.
    pub fn new(nu: f64) -> Self {
        LittleIsEnough { nu }
    }
}

impl Default for LittleIsEnough {
    /// The paper's setting: ν = 1.5.
    fn default() -> Self {
        LittleIsEnough { nu: 1.5 }
    }
}

impl Attack for LittleIsEnough {
    fn name(&self) -> &'static str {
        "alie"
    }

    fn forge_into(&self, ctx: &AttackContext<'_>, _rng: &mut Prng, out: &mut Vector) {
        // mean − ν·std computed coordinate-wise in place: the per-
        // coordinate accumulation, `1/(n−1)` scaling, and `+(−ν)·std`
        // update mirror `honest_std` + `axpy` exactly (the reference the
        // tests hold it to, bit for bit).
        ctx.honest_mean_into(out);
        let obs = ctx.observed();
        if obs.len() < 2 {
            return; // honest_std is the zero vector: forged = mean.
        }
        let inv = 1.0 / (obs.len() - 1) as f64;
        for j in 0..out.dim() {
            let m = out[j];
            let mut acc = 0.0;
            for v in obs {
                let d = v[j] - m;
                acc += d * d;
            }
            let std = (acc * inv).sqrt();
            out[j] = m + (-self.nu) * std;
        }
    }
}

/// "Fall of Empires" (Xie et al. 2019): submit `(1 − ν)·mean(honest)` —
/// inner-product manipulation; `ν > 1` reverses the descent direction
/// slightly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FallOfEmpires {
    /// Scale factor ν (paper default 1.1, i.e. ν′ = 0.1).
    pub nu: f64,
}

impl FallOfEmpires {
    /// Creates the attack with an explicit ν.
    pub fn new(nu: f64) -> Self {
        FallOfEmpires { nu }
    }
}

impl Default for FallOfEmpires {
    /// The paper's setting: ν = 1.1.
    fn default() -> Self {
        FallOfEmpires { nu: 1.1 }
    }
}

impl Attack for FallOfEmpires {
    fn name(&self) -> &'static str {
        "foe"
    }

    fn forge_into(&self, ctx: &AttackContext<'_>, _rng: &mut Prng, out: &mut Vector) {
        ctx.honest_mean_into(out);
        out.scale(1.0 - self.nu);
    }
}

/// Submits the negated honest mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SignFlip;

impl Attack for SignFlip {
    fn name(&self) -> &'static str {
        "sign-flip"
    }

    fn forge_into(&self, ctx: &AttackContext<'_>, _rng: &mut Prng, out: &mut Vector) {
        ctx.honest_mean_into(out);
        out.scale(-1.0);
    }
}

/// Submits pure Gaussian noise `N(0, std²·I)` — an *erroneous* rather than
/// malicious gradient (e.g. a corrupted worker).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomNoise {
    /// Per-coordinate standard deviation.
    pub std: f64,
}

impl RandomNoise {
    /// Creates the attack.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative.
    pub fn new(std: f64) -> Self {
        assert!(std >= 0.0, "std must be non-negative");
        RandomNoise { std }
    }
}

impl Attack for RandomNoise {
    fn name(&self) -> &'static str {
        "random-noise"
    }

    fn forge_into(&self, ctx: &AttackContext<'_>, rng: &mut Prng, out: &mut Vector) {
        let dim = ctx.observed().first().map_or(0, Vector::dim);
        out.resize(dim, 0.0);
        // Same per-coordinate draw order as `normal_vector` (the
        // reference the tests hold it to, bit for bit).
        for x in out.as_mut_slice() {
            *x = rng.normal(0.0, self.std);
        }
    }
}

/// Submits the zero vector (a silently failing worker; the paper's server
/// also substitutes 0 for non-received gradients).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Zero;

impl Attack for Zero {
    fn name(&self) -> &'static str {
        "zero"
    }

    fn forge_into(&self, ctx: &AttackContext<'_>, _rng: &mut Prng, out: &mut Vector) {
        out.resize(ctx.observed().first().map_or(0, Vector::dim), 0.0);
        out.fill(0.0);
    }
}

/// Mimic: every Byzantine worker replays the submission of one fixed
/// honest worker (Karimireddy et al. 2022). Statistically legal — the
/// forged gradient *is* an honest gradient — but it collapses the
/// diversity of the submitted set, over-weighting one worker's data and
/// starving the rest. Robust rules cannot reject it (it sits inside the
/// honest cluster by construction); the damage shows up as bias on
/// heterogeneous data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Mimic {
    /// Index (into the visible honest gradients) of the worker to copy.
    pub target: usize,
}

impl Mimic {
    /// Creates the attack copying the honest worker at `target`.
    pub fn new(target: usize) -> Self {
        Mimic { target }
    }
}

impl Attack for Mimic {
    fn name(&self) -> &'static str {
        "mimic"
    }

    fn forge_into(&self, ctx: &AttackContext<'_>, _rng: &mut Prng, out: &mut Vector) {
        let obs = ctx.observed();
        assert!(!obs.is_empty(), "mimic requires visible honest gradients");
        out.copy_from(&obs[self.target % obs.len()]);
    }
}

/// Inner-product manipulation (Xie, Koyejo, Gupta — UAI 2020): submit
/// `−ε·mean(honest)`, a *small* negated multiple of the coalition's
/// gradient estimate. The goal is not to be an outlier — the forged
/// vector sits well inside the honest cluster for small ε — but to tip
/// the inner product `⟨F(…), ∇Q⟩` negative so the descent direction
/// reverses without tripping distance-based filters.
///
/// This is the ε-parameterized canonical form of the same paper's
/// [`FallOfEmpires`] (`foe` with ν = 1 + ε submits the identical vector);
/// the two ids are kept distinct because the literature sweeps them on
/// different scales: FoE's ν near 1, IPM's ε from 0.1 (stealthy) to ≫ 1
/// (norm-amplified).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InnerProductManipulation {
    /// Negative-scaling factor ε (stealthy default 0.1).
    pub epsilon: f64,
}

impl InnerProductManipulation {
    /// Creates the attack with an explicit ε.
    pub fn new(epsilon: f64) -> Self {
        InnerProductManipulation { epsilon }
    }
}

impl Default for InnerProductManipulation {
    /// The stealthy literature baseline: ε = 0.1.
    fn default() -> Self {
        InnerProductManipulation { epsilon: 0.1 }
    }
}

impl Attack for InnerProductManipulation {
    fn name(&self) -> &'static str {
        "ipm"
    }

    fn forge_into(&self, ctx: &AttackContext<'_>, _rng: &mut Prng, out: &mut Vector) {
        ctx.honest_mean_into(out);
        out.scale(-self.epsilon);
    }
}

/// Norm-rescaling attack: submit the honest-mean *direction* rescaled to
/// a fixed L2 norm `|norm|` (reversed when `norm` is negative, the
/// default). Unlike the multiplicative [`LargeNorm`], the forged norm is
/// *absolute* — independent of the honest gradients' scale — which is
/// what makes it the natural probe for radius-tuned defenses like
/// centered clipping: a submission placed exactly at the clipping radius
/// evades shrinking entirely while biasing the aggregate maximally.
///
/// A zero honest mean forges the zero vector (no direction to rescale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rescaling {
    /// Target L2 norm; the sign selects the direction (negative =
    /// opposing the honest mean).
    pub norm: f64,
}

impl Rescaling {
    /// Creates the attack with an explicit signed target norm.
    pub fn new(norm: f64) -> Self {
        Rescaling { norm }
    }
}

impl Default for Rescaling {
    /// Unit norm, opposing the honest mean.
    fn default() -> Self {
        Rescaling { norm: -1.0 }
    }
}

impl Attack for Rescaling {
    fn name(&self) -> &'static str {
        "rescaling"
    }

    fn forge_into(&self, ctx: &AttackContext<'_>, _rng: &mut Prng, out: &mut Vector) {
        ctx.honest_mean_into(out);
        let n = out.l2_norm();
        if n > 0.0 {
            out.scale(self.norm / n);
        }
    }
}

/// Submits the honest mean blown up by a large factor — the naive attack
/// every robust GAR defeats trivially (a sanity baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LargeNorm {
    /// Multiplier applied to the honest mean.
    pub scale: f64,
}

impl LargeNorm {
    /// Creates the attack.
    pub fn new(scale: f64) -> Self {
        LargeNorm { scale }
    }
}

impl Default for LargeNorm {
    fn default() -> Self {
        LargeNorm { scale: 1e6 }
    }
}

impl Attack for LargeNorm {
    fn name(&self) -> &'static str {
        "large-norm"
    }

    fn forge_into(&self, ctx: &AttackContext<'_>, _rng: &mut Prng, out: &mut Vector) {
        ctx.honest_mean_into(out);
        out.scale(self.scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn honest() -> Vec<Vector> {
        vec![
            Vector::from(vec![1.0, 0.0]),
            Vector::from(vec![2.0, 0.0]),
            Vector::from(vec![3.0, 0.0]),
        ]
    }

    #[test]
    fn context_mean_and_std() {
        let h = honest();
        let ctx = AttackContext::new(&h, 7);
        assert_eq!(ctx.honest_mean().as_slice(), &[2.0, 0.0]);
        assert_eq!(ctx.honest_std().as_slice(), &[1.0, 0.0]);
        assert_eq!(ctx.step, 7);
    }

    #[test]
    fn context_single_gradient_std_is_zero() {
        let h = vec![Vector::from(vec![5.0])];
        let ctx = AttackContext::new(&h, 0);
        assert_eq!(ctx.honest_std().as_slice(), &[0.0]);
    }

    #[test]
    fn pre_noise_overrides_observed() {
        let noisy = vec![Vector::from(vec![100.0])];
        let clean = vec![Vector::from(vec![1.0])];
        let mut ctx = AttackContext::new(&noisy, 0);
        assert_eq!(ctx.honest_mean()[0], 100.0);
        ctx.pre_noise_gradients = Some(&clean);
        assert_eq!(ctx.honest_mean()[0], 1.0);
    }

    #[test]
    fn alie_shifts_mean_by_nu_std() {
        let h = honest();
        let ctx = AttackContext::new(&h, 0);
        let mut rng = Prng::seed_from_u64(0);
        let forged = LittleIsEnough::default().forge(&ctx, &mut rng);
        // mean − 1.5·std = [2 − 1.5, 0] = [0.5, 0].
        assert!(forged.approx_eq(&Vector::from(vec![0.5, 0.0]), 1e-12));
        assert_eq!(LittleIsEnough::default().nu, 1.5);
    }

    #[test]
    fn alie_hides_within_variance() {
        // The forged gradient stays within ~2σ of the honest mean — the
        // point of the attack is to be indistinguishable from an honest
        // straggler.
        let h = honest();
        let ctx = AttackContext::new(&h, 0);
        let mut rng = Prng::seed_from_u64(0);
        let forged = LittleIsEnough::default().forge(&ctx, &mut rng);
        let dist = forged.l2_distance(&ctx.honest_mean());
        let spread = ctx.honest_std().l2_norm();
        assert!(dist <= 2.0 * spread);
    }

    #[test]
    fn foe_scales_mean_negative() {
        let h = honest();
        let ctx = AttackContext::new(&h, 0);
        let mut rng = Prng::seed_from_u64(0);
        let forged = FallOfEmpires::default().forge(&ctx, &mut rng);
        // (1 − 1.1)·[2, 0] = [−0.2, 0].
        assert!(forged.approx_eq(&Vector::from(vec![-0.2, 0.0]), 1e-12));
    }

    #[test]
    fn foe_nu_one_submits_zero() {
        let h = honest();
        let ctx = AttackContext::new(&h, 0);
        let mut rng = Prng::seed_from_u64(0);
        let forged = FallOfEmpires::new(1.0).forge(&ctx, &mut rng);
        assert_eq!(forged.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn sign_flip_negates() {
        let h = honest();
        let ctx = AttackContext::new(&h, 0);
        let mut rng = Prng::seed_from_u64(0);
        let forged = SignFlip.forge(&ctx, &mut rng);
        assert_eq!(forged.as_slice(), &[-2.0, 0.0]);
    }

    #[test]
    fn random_noise_has_right_shape_and_seeding() {
        let h = honest();
        let ctx = AttackContext::new(&h, 0);
        let a = RandomNoise::new(1.0).forge(&ctx, &mut Prng::seed_from_u64(1));
        let b = RandomNoise::new(1.0).forge(&ctx, &mut Prng::seed_from_u64(1));
        assert_eq!(a, b);
        assert_eq!(a.dim(), 2);
    }

    #[test]
    fn ipm_is_small_negated_mean() {
        let h = honest();
        let ctx = AttackContext::new(&h, 0);
        let mut rng = Prng::seed_from_u64(0);
        // −0.1·[2, 0] = [−0.2, 0].
        let forged = InnerProductManipulation::default().forge(&ctx, &mut rng);
        assert!(forged.approx_eq(&Vector::from(vec![-0.2, 0.0]), 1e-12));
        // Negative inner product with the honest mean: the defining goal.
        let dot: f64 = forged
            .iter()
            .zip(ctx.honest_mean().iter())
            .map(|(a, b)| a * b)
            .sum();
        assert!(dot < 0.0);
        // ε-form equivalence with FoE: ipm(ε) ≡ foe(1 + ε).
        let foe = FallOfEmpires::new(1.1).forge(&ctx, &mut rng);
        assert!(forged.approx_eq(&foe, 1e-12));
    }

    #[test]
    fn rescaling_fixes_the_forged_norm() {
        let h = honest();
        let ctx = AttackContext::new(&h, 0);
        let mut rng = Prng::seed_from_u64(0);
        let forged = Rescaling::new(-3.0).forge(&ctx, &mut rng);
        // Absolute norm 3, direction opposing the mean [2, 0].
        assert!((forged.l2_norm() - 3.0).abs() < 1e-12);
        assert!(forged.approx_eq(&Vector::from(vec![-3.0, 0.0]), 1e-12));
        // The norm is independent of the honest scale (unlike LargeNorm).
        let scaled: Vec<Vector> = h.iter().map(|g| g.scaled(100.0)).collect();
        let ctx = AttackContext::new(&scaled, 0);
        let forged = Rescaling::new(-3.0).forge(&ctx, &mut rng);
        assert!((forged.l2_norm() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rescaling_zero_mean_forges_zero() {
        let h = vec![Vector::from(vec![1.0, 0.0]), Vector::from(vec![-1.0, 0.0])];
        let ctx = AttackContext::new(&h, 0);
        let mut rng = Prng::seed_from_u64(0);
        let forged = Rescaling::default().forge(&ctx, &mut rng);
        assert_eq!(forged.as_slice(), &[0.0, 0.0]);
        let mut out = Vector::from(vec![5.0]);
        Rescaling::default().forge_into(&ctx, &mut Prng::seed_from_u64(0), &mut out);
        assert_eq!(out.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn zero_and_large_norm() {
        let h = honest();
        let ctx = AttackContext::new(&h, 0);
        let mut rng = Prng::seed_from_u64(0);
        assert_eq!(Zero.forge(&ctx, &mut rng).as_slice(), &[0.0, 0.0]);
        let big = LargeNorm::default().forge(&ctx, &mut rng);
        assert!(big.l2_norm() > 1e5);
    }

    #[test]
    fn mimic_replays_target_worker() {
        let h = honest();
        let ctx = AttackContext::new(&h, 0);
        let mut rng = Prng::seed_from_u64(0);
        assert_eq!(Mimic::new(1).forge(&ctx, &mut rng), h[1]);
        // Out-of-range targets wrap.
        assert_eq!(Mimic::new(4).forge(&ctx, &mut rng), h[1]);
    }

    #[test]
    fn mimic_is_inside_honest_hull() {
        // The defining property: the forged gradient IS an honest one, so
        // no filter keyed on outlyingness can reject it.
        let h = honest();
        let ctx = AttackContext::new(&h, 3);
        let mut rng = Prng::seed_from_u64(0);
        let forged = Mimic::default().forge(&ctx, &mut rng);
        assert!(h.contains(&forged));
    }

    #[test]
    fn forge_into_matches_forge_bitwise() {
        let mut rng = Prng::seed_from_u64(17);
        let h: Vec<Vector> = (0..5)
            .map(|_| rng.normal_vector(6, 1.0))
            .collect::<Vec<_>>();
        let ctx = AttackContext::new(&h, 4);
        let attacks: Vec<Box<dyn Attack>> = vec![
            Box::new(LittleIsEnough::default()),
            Box::new(FallOfEmpires::default()),
            Box::new(SignFlip),
            Box::new(RandomNoise::new(0.8)),
            Box::new(Zero),
            Box::new(LargeNorm::default()),
            Box::new(Mimic::new(2)),
            Box::new(InnerProductManipulation::default()),
            Box::new(Rescaling::new(-0.25)),
        ];
        for attack in &attacks {
            let allocating = attack.forge(&ctx, &mut Prng::seed_from_u64(5));
            let mut rng_in = Prng::seed_from_u64(5);
            let mut reused = Vector::from(vec![7.0; 2]); // dirty, wrong dim
            attack.forge_into(&ctx, &mut rng_in, &mut reused);
            assert_eq!(allocating.dim(), reused.dim(), "{}", attack.name());
            for (a, b) in allocating.iter().zip(reused.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{} diverged", attack.name());
            }
            // RNG stream consumed identically.
            let mut rng_ref = Prng::seed_from_u64(5);
            let _ = attack.forge(&ctx, &mut rng_ref);
            assert_eq!(rng_in.uniform().to_bits(), rng_ref.uniform().to_bits());
        }
    }

    #[test]
    fn forge_into_single_observed_gradient_is_mean() {
        // ALIE with one visible gradient: std is the zero vector.
        let h = vec![Vector::from(vec![2.0, -3.0])];
        let ctx = AttackContext::new(&h, 0);
        let mut out = Vector::default();
        LittleIsEnough::default().forge_into(&ctx, &mut Prng::seed_from_u64(0), &mut out);
        assert_eq!(out, h[0]);
    }

    proptest! {
        /// `forge_into` against the reference formulas, bit for bit and
        /// RNG stream included: ALIE is `mean − ν·std`, RandomNoise is
        /// `normal_vector`.
        #[test]
        fn prop_forge_into_matches_reference_formulas(seed in 0u64..500, n in 1usize..8, dim in 1usize..16) {
            let mut rng = Prng::seed_from_u64(seed);
            let honest: Vec<Vector> = (0..n).map(|_| rng.normal_vector(dim, 1.0)).collect();
            let ctx = AttackContext::new(&honest, 0);
            let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut out = Vector::from(vec![-1.0; 2]); // dirty, wrong dim

            let alie = LittleIsEnough::default();
            let mut expected = ctx.honest_mean();
            expected.axpy(-alie.nu, &ctx.honest_std());
            alie.forge_into(&ctx, &mut Prng::seed_from_u64(seed), &mut out);
            prop_assert_eq!(bits(&out), bits(&expected));

            let noise = RandomNoise::new(1.3);
            let mut rng_ref = Prng::seed_from_u64(seed);
            let expected = rng_ref.normal_vector(dim, noise.std);
            let mut rng = Prng::seed_from_u64(seed);
            noise.forge_into(&ctx, &mut rng, &mut out);
            prop_assert_eq!(bits(&out), bits(&expected));
            prop_assert_eq!(rng.uniform().to_bits(), rng_ref.uniform().to_bits());
        }
    }

    #[test]
    fn names_are_distinct() {
        let attacks: Vec<Box<dyn Attack>> = vec![
            Box::new(LittleIsEnough::default()),
            Box::new(FallOfEmpires::default()),
            Box::new(SignFlip),
            Box::new(RandomNoise::new(1.0)),
            Box::new(Zero),
            Box::new(LargeNorm::default()),
            Box::new(Mimic::default()),
            Box::new(InnerProductManipulation::default()),
            Box::new(Rescaling::default()),
        ];
        let mut names: Vec<&str> = attacks.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 9);
    }
}
