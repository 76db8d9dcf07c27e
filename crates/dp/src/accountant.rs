//! Privacy composition across training steps.
//!
//! The paper studies the *per-step* budget (ε, δ); the privacy of a whole
//! `T`-step training run follows from composition (§2.3). Three accountants
//! are provided, from loosest to tightest for the Gaussian mechanism:
//!
//! * [`basic_composition`] — `(T·ε, T·δ)` (the classical theorem cited in
//!   §2.3);
//! * [`advanced_composition`] — `(ε·√(2T·ln(1/δ′)) + T·ε·(e^ε − 1),
//!   T·δ + δ′)` (Dwork & Roth, Thm. 3.20);
//! * [`RdpAccountant`] — Rényi-DP / moments-accountant style tracking for
//!   the Gaussian mechanism ("more refined tools, such as the moments
//!   accountant" — §2.3).

use crate::{DpError, PrivacyBudget};

/// Basic sequential composition: `T` runs of an `(ε, δ)`-DP mechanism are
/// `(T·ε, T·δ)`-DP.
///
/// Returns `(epsilon_total, delta_total)` (unvalidated — totals routinely
/// exceed 1, which is the paper's point about long trainings).
pub fn basic_composition(per_step: PrivacyBudget, steps: u32) -> (f64, f64) {
    (
        per_step.epsilon() * steps as f64,
        per_step.delta() * steps as f64,
    )
}

/// Advanced composition (Dwork–Roth Theorem 3.20): `T` runs of an
/// `(ε, δ)`-DP mechanism are `(ε′, T·δ + δ_slack)`-DP with
/// `ε′ = ε·√(2T·ln(1/δ_slack)) + T·ε·(e^ε − 1)`.
///
/// # Errors
///
/// [`DpError::InvalidDelta`] unless `δ_slack ∈ (0, 1)`.
pub fn advanced_composition(
    per_step: PrivacyBudget,
    steps: u32,
    delta_slack: f64,
) -> Result<(f64, f64), DpError> {
    if !(delta_slack > 0.0 && delta_slack < 1.0) {
        return Err(DpError::InvalidDelta {
            value: delta_slack,
            expected: "(0, 1)",
        });
    }
    let e = per_step.epsilon();
    let t = steps as f64;
    let eps_total = e * (2.0 * t * (1.0 / delta_slack).ln()).sqrt() + t * e * (e.exp() - 1.0);
    Ok((eps_total, t * per_step.delta() + delta_slack))
}

/// Rényi-DP accountant for the Gaussian mechanism.
///
/// A Gaussian mechanism with noise multiplier `ν = s/Δ₂` satisfies RDP of
/// order `α` with `ε_RDP(α) = α / (2ν²)`; RDP composes additively over
/// steps, and converts to `(ε, δ)`-DP via
/// `ε(δ) = min_α [ ε_RDP(α)·T + ln(1/δ)/(α − 1) ]`.
///
/// # Example
///
/// ```
/// use dpbyz_dp::accountant::RdpAccountant;
///
/// let mut acc = RdpAccountant::new(2.0).unwrap(); // noise multiplier ν = 2
/// acc.step_many(1000);
/// let eps = acc.epsilon(1e-6);
/// assert!(eps > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct RdpAccountant {
    noise_multiplier: f64,
    steps: u64,
}

impl RdpAccountant {
    /// Orders scanned during RDP→DP conversion.
    const ORDERS: [f64; 20] = [
        1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 32.0, 48.0,
        64.0, 96.0, 128.0, 256.0,
    ];

    /// Creates an accountant for a Gaussian mechanism with the given noise
    /// multiplier `ν = s / Δ₂`.
    ///
    /// # Errors
    ///
    /// [`DpError::InvalidSensitivity`] for non-positive `ν`.
    pub fn new(noise_multiplier: f64) -> Result<Self, DpError> {
        if !(noise_multiplier > 0.0 && noise_multiplier.is_finite()) {
            return Err(DpError::InvalidSensitivity(noise_multiplier));
        }
        Ok(RdpAccountant {
            noise_multiplier,
            steps: 0,
        })
    }

    /// Convenience: the noise multiplier implied by a per-step budget under
    /// the classical calibration, `ν = √(2·ln(1.25/δ)) / ε`.
    ///
    /// # Errors
    ///
    /// Propagates [`RdpAccountant::new`] errors.
    pub fn from_budget(per_step: PrivacyBudget) -> Result<Self, DpError> {
        let nu = (2.0 * (1.25 / per_step.delta()).ln()).sqrt() / per_step.epsilon();
        Self::new(nu)
    }

    /// Records one mechanism invocation.
    pub fn step(&mut self) {
        self.steps += 1;
    }

    /// Records `n` invocations.
    pub fn step_many(&mut self, n: u64) {
        self.steps += n;
    }

    /// Number of recorded steps.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// RDP ε at order `α` after the recorded steps.
    fn rdp_epsilon(&self, alpha: f64) -> f64 {
        self.steps as f64 * alpha / (2.0 * self.noise_multiplier * self.noise_multiplier)
    }

    /// Converts the accumulated RDP to an `(ε, δ)`-DP guarantee for the
    /// given `δ`, minimizing over the order grid.
    ///
    /// # Panics
    ///
    /// Panics unless `δ ∈ (0, 1)`.
    pub fn epsilon(&self, delta: f64) -> f64 {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        Self::ORDERS
            .iter()
            .map(|&a| self.rdp_epsilon(a) + (1.0 / delta).ln() / (a - 1.0))
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_budget() -> PrivacyBudget {
        PrivacyBudget::new(0.2, 1e-6).unwrap()
    }

    #[test]
    fn basic_is_linear() {
        let (e, d) = basic_composition(paper_budget(), 1000);
        assert!((e - 200.0).abs() < 1e-9);
        assert!((d - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn advanced_beats_basic_for_many_steps() {
        let b = paper_budget();
        let (basic_e, _) = basic_composition(b, 1000);
        let (adv_e, adv_d) = advanced_composition(b, 1000, 1e-6).unwrap();
        assert!(adv_e < basic_e, "advanced {adv_e} vs basic {basic_e}");
        assert!(adv_d < 1.0);
    }

    #[test]
    fn advanced_rejects_bad_slack() {
        assert!(advanced_composition(paper_budget(), 10, 0.0).is_err());
        assert!(advanced_composition(paper_budget(), 10, 1.0).is_err());
    }

    #[test]
    fn rdp_beats_advanced_for_long_runs() {
        let b = paper_budget();
        let mut acc = RdpAccountant::from_budget(b).unwrap();
        acc.step_many(1000);
        let rdp_e = acc.epsilon(1e-5);
        let (adv_e, _) = advanced_composition(b, 1000, 1e-5 - 1000.0 * 1e-6 * 0.0).unwrap();
        assert!(rdp_e < adv_e, "rdp {rdp_e} vs advanced {adv_e}");
    }

    #[test]
    fn rdp_grows_linearly_in_steps_at_fixed_order() {
        let mut acc = RdpAccountant::new(2.0).unwrap();
        acc.step_many(10);
        let e10 = acc.rdp_epsilon(4.0);
        acc.step_many(10);
        let e20 = acc.rdp_epsilon(4.0);
        assert!((e20 / e10 - 2.0).abs() < 1e-12);
        assert_eq!(acc.steps(), 20);
    }

    #[test]
    fn rdp_epsilon_monotone_in_steps() {
        let mut acc = RdpAccountant::new(1.5).unwrap();
        acc.step();
        let e1 = acc.epsilon(1e-6);
        acc.step_many(99);
        let e100 = acc.epsilon(1e-6);
        assert!(e100 > e1);
    }

    #[test]
    fn more_noise_means_less_epsilon() {
        let mut a = RdpAccountant::new(1.0).unwrap();
        let mut b = RdpAccountant::new(4.0).unwrap();
        a.step_many(100);
        b.step_many(100);
        assert!(b.epsilon(1e-6) < a.epsilon(1e-6));
    }

    #[test]
    fn new_rejects_bad_multiplier() {
        assert!(RdpAccountant::new(0.0).is_err());
        assert!(RdpAccountant::new(-1.0).is_err());
        assert!(RdpAccountant::new(f64::NAN).is_err());
    }

    #[test]
    #[should_panic(expected = "delta must be in (0, 1)")]
    fn epsilon_rejects_bad_delta() {
        let acc = RdpAccountant::new(1.0).unwrap();
        let _ = acc.epsilon(0.0);
    }
}
