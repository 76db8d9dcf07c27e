//! Eq. 8 — the VN-ratio condition under DP noise.
//!
//! A gradient aggregation step that is both `(ε, δ)`-DP (Gaussian
//! mechanism, Eq. 6) and certified `(α, f)`-Byzantine resilient must
//! satisfy
//!
//! ```text
//! √( E‖G − E[G]‖²  +  8·d·G²max·ln(1.25/δ) / (ε²·b²) )
//! ─────────────────────────────────────────────────────  ≤  κ_F(n, f)
//!                      ‖E[G]‖
//! ```
//!
//! The added term is exactly `d·s²` for the Eq. 6 noise std `s`.

use dpbyz_dp::PrivacyBudget;

/// The DP-noise contribution to the VN numerator:
/// `d·s² = 8·d·G²max·ln(1.25/δ) / (ε²·b²)`.
fn noise_energy(budget: PrivacyBudget, g_max: f64, batch_size: usize, dim: usize) -> f64 {
    assert!(g_max > 0.0 && batch_size > 0, "invalid calibration inputs");
    8.0 * dim as f64 * g_max * g_max * (1.25 / budget.delta()).ln()
        / (budget.epsilon() * budget.epsilon() * (batch_size * batch_size) as f64)
}

/// The left-hand side of Eq. 8: the noisy VN ratio given the intrinsic
/// gradient variance `σ_G² = E‖G − E[G]‖²` and the true-gradient norm.
///
/// Returns `+∞` when the gradient norm is 0 (the condition can never hold
/// at a critical point, consistent with Eq. 2).
pub fn noisy_vn_ratio(
    gradient_variance: f64,
    grad_norm: f64,
    budget: PrivacyBudget,
    g_max: f64,
    batch_size: usize,
    dim: usize,
) -> f64 {
    assert!(gradient_variance >= 0.0 && grad_norm >= 0.0);
    if grad_norm == 0.0 {
        return f64::INFINITY;
    }
    (gradient_variance + noise_energy(budget, g_max, batch_size, dim)).sqrt() / grad_norm
}

/// Whether Eq. 8 holds against a GAR bound `kappa`.
pub fn condition_holds(
    gradient_variance: f64,
    grad_norm: f64,
    budget: PrivacyBudget,
    g_max: f64,
    batch_size: usize,
    dim: usize,
    kappa: f64,
) -> bool {
    noisy_vn_ratio(gradient_variance, grad_norm, budget, g_max, batch_size, dim) <= kappa
}

/// The smallest batch size for which Eq. 8 *can* hold in the best case
/// (`σ_G² = 0`, `‖E[G]‖ = G_max` — the most favourable gradient
/// statistics), i.e. the hard floor
/// `b ≥ √(8·d·ln(1.25/δ)) / (ε·κ)` of the proofs of Propositions 1–3.
///
/// Returns `None` if `kappa ≤ 0`.
pub fn min_feasible_batch(budget: PrivacyBudget, dim: usize, kappa: f64) -> Option<usize> {
    if kappa <= 0.0 {
        return None;
    }
    let b = (8.0 * dim as f64 * (1.25 / budget.delta()).ln()).sqrt() / (budget.epsilon() * kappa);
    Some(b.ceil().max(1.0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbyz_dp::{GaussianMechanism, Mechanism};

    fn paper_budget() -> PrivacyBudget {
        PrivacyBudget::new(0.2, 1e-6).unwrap()
    }

    #[test]
    fn noise_energy_equals_d_s_squared() {
        // Consistency with the mechanism's own accounting.
        let budget = paper_budget();
        let (g_max, b, d) = (0.01, 50, 69);
        let mech = GaussianMechanism::for_clipped_gradients(budget, g_max, b).unwrap();
        let via_mech = mech.total_noise_variance(d);
        let via_eq8 = noise_energy(budget, g_max, b, d);
        assert!(
            (via_mech - via_eq8).abs() / via_eq8 < 1e-12,
            "{via_mech} vs {via_eq8}"
        );
    }

    #[test]
    fn ratio_reduces_to_eq2_without_noise_limit() {
        // As b → ∞ the noise term vanishes and the ratio approaches
        // √σ²/‖∇Q‖.
        let budget = paper_budget();
        let r = noisy_vn_ratio(0.04, 0.5, budget, 0.01, 1_000_000, 69);
        assert!((r - 0.2 / 0.5).abs() < 1e-6);
    }

    #[test]
    fn ratio_grows_with_dimension_as_sqrt_d() {
        let budget = paper_budget();
        let r_d = noisy_vn_ratio(0.0, 0.01, budget, 0.01, 50, 100);
        let r_4d = noisy_vn_ratio(0.0, 0.01, budget, 0.01, 50, 400);
        assert!((r_4d / r_d - 2.0).abs() < 1e-9);
    }

    #[test]
    fn condition_fails_in_high_privacy_regime() {
        // Paper's point: at (ε = 0.2, δ = 1e-6), d = 69, b = 50, MDA's
        // κ(11,5) cannot be met even with zero intrinsic variance, because
        // the best possible norm is G_max.
        let budget = paper_budget();
        let kappa = 6.0 / (8f64.sqrt() * 5.0); // MDA, n = 11, f = 5
        assert!(!condition_holds(0.0, 0.01, budget, 0.01, 50, 69, kappa));
        // But a gigantic batch rescues it (the b ∈ Ω(√d) escape).
        assert!(condition_holds(0.0, 0.01, budget, 0.01, 100_000, 69, kappa));
    }

    #[test]
    fn min_feasible_batch_matches_closed_form() {
        let budget = paper_budget();
        let kappa = 6.0 / (8f64.sqrt() * 5.0);
        let b = min_feasible_batch(budget, 69, kappa).unwrap();
        let expected = (8.0 * 69.0 * (1.25f64 / 1e-6).ln()).sqrt() / (0.2 * kappa);
        assert_eq!(b, expected.ceil() as usize);
        // And the boundary actually separates feasible from infeasible at
        // the most favourable statistics.
        assert!(condition_holds(0.0, 0.01, budget, 0.01, b, 69, kappa));
        assert!(!condition_holds(0.0, 0.01, budget, 0.01, b / 2, 69, kappa));
        assert!(min_feasible_batch(budget, 69, 0.0).is_none());
    }

    #[test]
    fn zero_gradient_norm_is_infeasible() {
        let budget = paper_budget();
        assert!(noisy_vn_ratio(0.0, 0.0, budget, 0.01, 50, 69).is_infinite());
    }
}
