//! The VN-ratio condition, measured against the theory: Eq. 2 vs Eq. 8 on
//! live training runs, and consistency of Table 1's thresholds with
//! measurements.
//!
//! VN statistics are averaged over the *early* steps of training: near
//! convergence `‖∇Q‖ → 0` and the ratio diverges for any configuration
//! (the certificate is about the productive phase of training, which is
//! also where the paper's experiments live).

use dpbyz_core::pipeline::Experiment;
use dpbyz_core::registry::build_gar;
use dpbyz_core::theory::vn as theory_vn;
use dpbyz_dp::PrivacyBudget;
use dpbyz_server::RunHistory;

fn run(batch: usize, eps: Option<f64>) -> RunHistory {
    // Momentum is disabled: Eq. 2 / Eq. 8 are statements about the raw
    // (noisy) per-step gradients of Eq. 7; the paper-protocol *worker
    // momentum* accumulates noise across steps, which is a different
    // (larger) quantity, measured by the figure experiments instead.
    let mut builder = Experiment::builder()
        .batch_size(batch)
        .steps(40)
        .dataset_size(2000)
        .momentum(0.0);
    if let Some(eps) = eps {
        builder = builder.epsilon(eps);
    }
    let exp = builder.build().expect("valid configuration");
    exp.run(1).expect("runs")
}

/// Mean of the first `k` finite entries.
fn early_mean(xs: &[f64], k: usize) -> f64 {
    let vals: Vec<f64> = xs
        .iter()
        .copied()
        .filter(|x| x.is_finite())
        .take(k)
        .collect();
    vals.iter().sum::<f64>() / vals.len() as f64
}

fn paper_budget() -> PrivacyBudget {
    PrivacyBudget::new(0.2, 1e-6).unwrap()
}

/// MDA's VN bound κ(11, 5), the paper's topology.
fn mda_kappa() -> f64 {
    build_gar(&"mda".into()).unwrap().kappa(11, 5).unwrap()
}

#[test]
fn dp_noise_inflates_measured_vn_ratio() {
    let clean = run(50, None);
    let noisy = run(50, Some(0.2));
    let vn_clean = early_mean(&clean.vn_clean, 15);
    let vn_dp = early_mean(&noisy.vn_submitted, 15);
    assert!(
        vn_dp > vn_clean * 3.0,
        "DP barely moved the VN ratio: {vn_clean} -> {vn_dp}"
    );
}

#[test]
fn first_step_clean_vn_identical_across_mechanisms() {
    // At step 1 the parameters and batches are identical between the
    // no-DP and DP runs (noise is drawn after the batch), so the clean VN
    // statistic must agree exactly; afterwards the runs diverge.
    let clean = run(50, None);
    let noisy = run(50, Some(0.2));
    assert_eq!(clean.vn_clean[0], noisy.vn_clean[0]);
    assert_eq!(clean.grad_norm[0], noisy.grad_norm[0]);
}

#[test]
fn measured_noisy_vn_matches_eq8_prediction() {
    // Eq. 8's numerator: σ_G² + d·s². Feed the measured clean variance and
    // gradient norm into the closed form and compare with the measured
    // noisy ratio, step by step over the early phase.
    let noisy = run(50, Some(0.2));
    let budget = paper_budget();
    let mut ratios = Vec::new();
    for t in 0..15 {
        let clean_ratio = noisy.vn_clean[t];
        let norm = noisy.grad_norm[t];
        if !clean_ratio.is_finite() || norm <= 0.0 {
            continue;
        }
        let sigma_g2 = (clean_ratio * norm).powi(2);
        let predicted = theory_vn::noisy_vn_ratio(sigma_g2, norm, budget, 1e-2, 50, 69);
        ratios.push(noisy.vn_submitted[t] / predicted);
    }
    let mean_ratio: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        mean_ratio > 0.6 && mean_ratio < 1.6,
        "measured/predicted = {mean_ratio}"
    );
}

#[test]
fn vn_ratio_decreases_with_batch_size() {
    // σ_G² ∝ 1/b and d·s² ∝ 1/b²: bigger batches shrink the ratio on both
    // accounts.
    let b10 = early_mean(&run(10, Some(0.2)).vn_submitted, 15);
    let b500 = early_mean(&run(500, Some(0.2)).vn_submitted, 15);
    assert!(
        b500 < b10 / 5.0,
        "VN did not fall with batch size: b10 {b10}, b500 {b500}"
    );
}

#[test]
fn measured_vn_vs_gar_kappas_flips_under_dp() {
    // During early training, the clean b = 500 run satisfies MDA's κ(11,5)
    // while the DP b = 50 run violates it — the certificate flip the
    // paper is about, on live measurements.
    let kappa = mda_kappa();
    let good = early_mean(&run(500, None).vn_clean, 10);
    let bad = early_mean(&run(50, Some(0.2)).vn_submitted, 10);
    assert!(
        good < kappa,
        "clean b=500 should satisfy MDA's bound early on: VN {good} vs κ {kappa}"
    );
    assert!(
        bad > kappa,
        "DP b=50 should violate MDA's bound: VN {bad} vs κ {kappa}"
    );
}

#[test]
fn min_feasible_batch_is_consistent_with_measurements() {
    // Below theory's hard floor (best-case statistics) the measured noisy
    // VN ratio must violate κ.
    let budget = paper_budget();
    let kappa = mda_kappa();
    let floor = theory_vn::min_feasible_batch(budget, 69, kappa).unwrap();
    assert!(floor > 500, "floor unexpectedly small: {floor}");
    let measured = early_mean(&run(50, Some(0.2)).vn_submitted, 15);
    assert!(measured > kappa);
}
