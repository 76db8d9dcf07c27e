//! Theorem 1's error-rate scaling, measured end-to-end on the
//! mean-estimation workload: each measured error ratio is checked against
//! the ratio of the Θ rate `d·ln(1/δ) / (T·b²·ε²)` between the two cells.

use dpbyz_core::pipeline::Experiment;
use dpbyz_core::theory::convergence;
use dpbyz_dp::PrivacyBudget;

fn suboptimality(dim: usize, budget: Option<PrivacyBudget>, steps: u32, b: usize) -> f64 {
    let exp = Experiment::theorem1(dim, 1.0, budget, steps, b, 1).expect("valid spec");
    let dist = exp.mean_estimation_instance().expect("mean estimation");
    let seeds = [1u64, 2, 3];
    seeds
        .iter()
        .map(|&s| {
            let h = exp.run(s).expect("runs");
            0.5 * h.final_params.l2_distance_squared(dist.true_mean())
        })
        .sum::<f64>()
        / seeds.len() as f64
}

fn paper_budget() -> PrivacyBudget {
    PrivacyBudget::new(0.2, 1e-6).unwrap()
}

#[test]
fn dp_error_grows_linearly_with_dimension() {
    let budget = paper_budget();
    let e16 = suboptimality(16, Some(budget), 300, 10);
    let e64 = suboptimality(64, Some(budget), 300, 10);
    let ratio = e64 / e16;
    let expected =
        convergence::theta_rate(64, budget, 300, 10) / convergence::theta_rate(16, budget, 300, 10);
    assert!(
        ratio > expected * 0.625 && ratio < expected * 1.625,
        "d×4 gave error×{ratio:.2}, expected ≈{expected:.0}"
    );
}

#[test]
fn no_dp_error_is_dimension_free() {
    let e16 = suboptimality(16, None, 300, 10);
    let e256 = suboptimality(256, None, 300, 10);
    // O(1/T) independent of d: within a small constant factor.
    let ratio = e256 / e16;
    assert!(ratio < 3.0, "no-DP error scaled with d: ×{ratio:.2}");
}

#[test]
fn dp_error_shrinks_quadratically_with_batch() {
    let budget = paper_budget();
    let b5 = suboptimality(32, Some(budget), 300, 5);
    let b20 = suboptimality(32, Some(budget), 300, 20);
    let ratio = b5 / b20;
    // b×4 ⇒ error ÷16 (noise-dominated regime); generous window.
    let expected =
        convergence::theta_rate(32, budget, 300, 5) / convergence::theta_rate(32, budget, 300, 20);
    assert!(
        ratio > expected * 0.5 && ratio < expected * 2.0,
        "b×4 gave error÷{ratio:.1}, expected ≈{expected:.0}"
    );
}

#[test]
fn dp_error_shrinks_quadratically_with_epsilon() {
    let tight = PrivacyBudget::new(0.1, 1e-6).unwrap();
    let loose = PrivacyBudget::new(0.4, 1e-6).unwrap();
    let e_tight = suboptimality(32, Some(tight), 300, 10);
    let e_loose = suboptimality(32, Some(loose), 300, 10);
    let ratio = e_tight / e_loose;
    let expected =
        convergence::theta_rate(32, tight, 300, 10) / convergence::theta_rate(32, loose, 300, 10);
    assert!(
        ratio > expected * 0.5 && ratio < expected * 2.0,
        "ε×4 gave error÷{ratio:.1}, expected ≈{expected:.0}"
    );
}

#[test]
fn measured_error_between_theorem_bounds() {
    // Up to the Θ constants: within [lower/3, 3·upper].
    let budget = paper_budget();
    for &dim in &[16usize, 64] {
        let measured = suboptimality(dim, Some(budget), 300, 10);
        let lo = convergence::lower_bound(1.0, 2.0, 300, 10, dim, Some(budget));
        let hi = convergence::upper_bound(
            &convergence::ProblemConstants::mean_estimation(1.0, 2.0),
            300,
            10,
            dim,
            Some(budget),
        );
        assert!(
            measured > lo / 3.0 && measured < hi * 3.0,
            "d={dim}: measured {measured} outside [{}, {}]",
            lo / 3.0,
            hi * 3.0
        );
    }
}

#[test]
fn error_halves_when_horizon_doubles() {
    let budget = paper_budget();
    let t200 = suboptimality(32, Some(budget), 200, 10);
    let t800 = suboptimality(32, Some(budget), 800, 10);
    let ratio = t200 / t800;
    let expected =
        convergence::theta_rate(32, budget, 200, 10) / convergence::theta_rate(32, budget, 800, 10);
    assert!(
        ratio > expected * 0.5 && ratio < expected * 2.0,
        "T×4 gave error÷{ratio:.1}, expected ≈{expected:.0}"
    );
}
