//! Privacy amplification by shuffling — the paper's §7 future-work
//! direction \[44\] (Erlingsson et al., SODA 2019), implemented.
//!
//! If each of `n` workers applies an `ε₀`-local randomizer and an anonymous
//! shuffler permutes the reports before the curious server sees them, the
//! shuffled collection satisfies *central* `(ε, δ)`-DP with
//!
//! ```text
//! ε = 12·ε₀·√(ln(1/δ) / n)        (valid for ε₀ ≤ 1/2, n ≥ 1000·ln(1/δ))
//! ```
//!
//! The interesting implication for this paper: amplification works in the
//! *other direction* too — to hit a fixed central target ε with a shuffler,
//! each worker may use a larger local ε₀ = ε·√n / (12·√ln(1/δ)), i.e.
//! **less local noise**, relaxing the VN-ratio pressure of Eq. 8 by a
//! factor √n. The calculators below quantify exactly that trade.

use crate::DpError;

/// Central ε after shuffling `n` reports from `ε₀`-local randomizers, at
/// failure probability `δ` (Erlingsson et al., Theorem 1 constants).
///
/// # Errors
///
/// [`DpError::InvalidEpsilon`] if `ε₀ > 1/2` (outside the theorem's
/// validity) or non-positive, [`DpError::InvalidDelta`] for `δ ∉ (0, 1)`
/// or `n < 1000·ln(1/δ)` (the theorem's population requirement, folded
/// into the delta error as it is a joint condition).
#[cfg(test)]
fn shuffled_central_epsilon(eps_local: f64, n: usize, delta: f64) -> Result<f64, DpError> {
    if !(eps_local > 0.0 && eps_local <= 0.5) {
        return Err(DpError::InvalidEpsilon {
            value: eps_local,
            expected: "(0, 1/2] for shuffle amplification",
        });
    }
    if !(delta > 0.0 && delta < 1.0) {
        return Err(DpError::InvalidDelta {
            value: delta,
            expected: "(0, 1)",
        });
    }
    let ln_inv_delta = (1.0 / delta).ln();
    if (n as f64) < 1000.0 * ln_inv_delta {
        return Err(DpError::InvalidDelta {
            value: delta,
            expected: "n >= 1000*ln(1/delta) for shuffle amplification",
        });
    }
    Ok(12.0 * eps_local * (ln_inv_delta / n as f64).sqrt())
}

/// The largest local ε₀ each worker may spend so that shuffling `n`
/// reports still meets a central target `(ε, δ)` — the noise *relaxation*
/// a shuffler buys. Capped at the theorem's 1/2 validity limit.
///
/// # Errors
///
/// [`DpError::InvalidEpsilon`] for a non-positive or infinite target,
/// [`DpError::InvalidDelta`] for `δ ∉ (0, 1)` or `n < 1000·ln(1/δ)`.
pub fn local_epsilon_budget(eps_central: f64, n: usize, delta: f64) -> Result<f64, DpError> {
    if !(eps_central > 0.0 && eps_central.is_finite()) {
        return Err(DpError::InvalidEpsilon {
            value: eps_central,
            expected: "(0, inf)",
        });
    }
    if !(delta > 0.0 && delta < 1.0) {
        return Err(DpError::InvalidDelta {
            value: delta,
            expected: "(0, 1)",
        });
    }
    let ln_inv_delta = (1.0 / delta).ln();
    if (n as f64) < 1000.0 * ln_inv_delta {
        return Err(DpError::InvalidDelta {
            value: delta,
            expected: "n >= 1000*ln(1/delta) for shuffle amplification",
        });
    }
    Ok((eps_central * (n as f64 / ln_inv_delta).sqrt() / 12.0).min(0.5))
}

/// Privacy amplification by Poisson subsampling: running an `ε`-DP
/// mechanism on a `q`-subsample of the data is
/// `ln(1 + q·(e^ε − 1))`-DP (with `δ' = q·δ`).
///
/// This is the lens through which mini-batch sampling itself buys privacy:
/// a worker whose batch is a `q = b/N` Poisson sample of its local dataset
/// gets a per-step budget roughly `q·ε` for small `ε` — context for why
/// per-step budgets in `(0, 1)` are attainable at all in practice.
///
/// # Errors
///
/// [`DpError::InvalidEpsilon`] for non-positive `ε`,
/// [`DpError::InvalidDelta`] for `q ∉ (0, 1]`.
#[cfg(test)]
fn subsampled_epsilon(eps: f64, sampling_rate: f64) -> Result<f64, DpError> {
    if !(eps > 0.0 && eps.is_finite()) {
        return Err(DpError::InvalidEpsilon {
            value: eps,
            expected: "(0, inf)",
        });
    }
    if !(sampling_rate > 0.0 && sampling_rate <= 1.0) {
        return Err(DpError::InvalidDelta {
            value: sampling_rate,
            expected: "(0, 1] as a sampling rate",
        });
    }
    Ok((1.0 + sampling_rate * (eps.exp() - 1.0)).ln())
}

/// By what factor shuffling shrinks the per-coordinate Gaussian noise std
/// needed for a central target `(ε, δ)`, relative to pure local DP
/// (`s ∝ 1/ε₀`): `relaxation = ε₀(shuffled) / ε₀(local-only)`.
///
/// Returns `None` when amplification does not apply (domain violations).
#[cfg(test)]
fn noise_reduction_factor(eps_central: f64, n: usize, delta: f64) -> Option<f64> {
    let relaxed = local_epsilon_budget(eps_central, n, delta).ok()?;
    Some(relaxed / eps_central)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification_shrinks_epsilon() {
        // 100k workers at ε₀ = 0.5, δ = 1e-6.
        let eps = shuffled_central_epsilon(0.5, 100_000, 1e-6).unwrap();
        assert!(eps < 0.5, "no amplification: {eps}");
        // 12·0.5·√(13.8/1e5) ≈ 0.0705.
        assert!((eps - 12.0 * 0.5 * (13.815_510_6f64 / 1e5).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn amplification_scales_as_inverse_sqrt_n() {
        let e1 = shuffled_central_epsilon(0.5, 100_000, 1e-6).unwrap();
        let e2 = shuffled_central_epsilon(0.5, 400_000, 1e-6).unwrap();
        assert!((e1 / e2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_out_of_domain() {
        assert!(shuffled_central_epsilon(0.6, 100_000, 1e-6).is_err());
        assert!(shuffled_central_epsilon(0.0, 100_000, 1e-6).is_err());
        assert!(shuffled_central_epsilon(0.5, 100, 1e-6).is_err()); // n too small
        assert!(shuffled_central_epsilon(0.5, 100_000, 0.0).is_err());
    }

    #[test]
    fn local_budget_inverts_the_bound() {
        let n = 1_000_000;
        let delta = 1e-6;
        let local = local_epsilon_budget(0.2, n, delta).unwrap();
        if local < 0.5 {
            let central = shuffled_central_epsilon(local, n, delta).unwrap();
            assert!((central - 0.2).abs() < 1e-9);
        }
    }

    #[test]
    fn local_budget_caps_at_half() {
        // Enormous populations would allow ε₀ > 1/2; the theorem caps it.
        let local = local_epsilon_budget(0.4, 100_000_000, 1e-6).unwrap();
        assert_eq!(local, 0.5);
    }

    #[test]
    fn noise_reduction_grows_with_population() {
        // A small central target keeps ε₀ below the 1/2 cap so the √n
        // scaling is visible.
        let f_small = noise_reduction_factor(0.01, 100_000, 1e-6).unwrap();
        let f_large = noise_reduction_factor(0.01, 1_000_000, 1e-6).unwrap();
        assert!(f_large > f_small * 3.0, "{f_small} vs {f_large}");
        // Relaxation means ε₀ ≥ ε_central ⇒ factor ≥ 1 in this regime.
        assert!(f_small > 1.0);
    }

    #[test]
    fn noise_reduction_none_on_domain_violation() {
        assert!(noise_reduction_factor(0.2, 10, 1e-6).is_none());
    }

    #[test]
    fn subsampling_identity_at_full_rate() {
        let e = subsampled_epsilon(0.7, 1.0).unwrap();
        assert!((e - 0.7).abs() < 1e-12);
    }

    #[test]
    fn subsampling_scales_linearly_for_small_epsilon() {
        // ln(1 + q(e^ε − 1)) ≈ q·ε for small ε.
        let e = subsampled_epsilon(0.01, 0.1).unwrap();
        assert!((e - 0.001).abs() < 1e-5, "got {e}");
    }

    #[test]
    fn subsampling_monotone_in_rate() {
        let lo = subsampled_epsilon(1.0, 0.1).unwrap();
        let hi = subsampled_epsilon(1.0, 0.5).unwrap();
        assert!(lo < hi && hi < 1.0);
    }

    #[test]
    fn subsampling_rejects_bad_inputs() {
        assert!(subsampled_epsilon(0.0, 0.5).is_err());
        assert!(subsampled_epsilon(1.0, 0.0).is_err());
        assert!(subsampled_epsilon(1.0, 1.5).is_err());
    }
}
