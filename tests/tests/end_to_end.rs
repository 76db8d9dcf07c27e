//! End-to-end reproduction of the paper's headline phenomena at reduced
//! scale (Figs. 2–4's qualitative shape).

use dpbyz_core::pipeline::Experiment;

fn cell(batch: usize, eps: Option<f64>, attack: Option<&str>) -> Experiment {
    let mut builder = Experiment::builder()
        .batch_size(batch)
        .steps(200)
        .dataset_size(2500);
    if let Some(eps) = eps {
        builder = builder.epsilon(eps);
    }
    if let Some(attack) = attack {
        builder = builder.attack(attack);
    }
    builder.build().expect("valid configuration")
}

fn tail(batch: usize, eps: Option<f64>, attack: Option<&str>, seed: u64) -> f64 {
    cell(batch, eps, attack)
        .run(seed)
        .expect("runs")
        .tail_loss(10)
}

#[test]
fn clean_training_converges() {
    let h = cell(50, None, None).run(1).expect("runs");
    assert!(h.tail_loss(10) < 0.12, "loss {}", h.tail_loss(10));
    assert!(h.final_accuracy().unwrap() > 0.8);
}

#[test]
fn mda_defends_against_alie_without_dp() {
    // Fig. 2 left panel: attacked no-DP training still reaches a loss in
    // the neighbourhood of the clean run.
    let clean = tail(50, None, None, 1);
    let attacked = tail(50, None, Some("alie"), 1);
    assert!(
        attacked < clean + 0.15,
        "MDA failed without DP: clean {clean}, attacked {attacked}"
    );
}

#[test]
fn dp_alone_is_fine_at_b50() {
    // Fig. 2 right panel, unattacked curve.
    let clean = tail(50, None, None, 1);
    let dp = tail(50, Some(0.2), None, 1);
    assert!(dp < clean + 0.1, "DP alone broke training: {clean} vs {dp}");
}

#[test]
fn dp_plus_attack_collapses_at_b50() {
    // The headline: DP + ALIE at b = 50 is much worse than either alone.
    let dp = tail(50, Some(0.2), None, 1);
    let attacked = tail(50, None, Some("alie"), 1);
    let both = tail(50, Some(0.2), Some("alie"), 1);
    assert!(
        both > dp + 0.15 && both > attacked + 0.15,
        "no collapse: dp {dp}, attacked {attacked}, both {both}"
    );
    // Accuracy collapses to near-chance.
    let h = cell(50, Some(0.2), Some("alie")).run(1).expect("runs");
    assert!(
        h.final_accuracy().unwrap() < 0.7,
        "accuracy {}",
        h.final_accuracy().unwrap()
    );
}

#[test]
fn large_batch_rescues_the_combination() {
    // Fig. 4: at b = 500 DP + attack converges again (antagonism, not
    // impossibility).
    let both_b50 = tail(50, Some(0.2), Some("alie"), 1);
    let both_b500 = tail(500, Some(0.2), Some("alie"), 1);
    assert!(
        both_b500 < both_b50 - 0.15,
        "no rescue: b=50 {both_b50}, b=500 {both_b500}"
    );
    assert!(both_b500 < 0.15, "b=500 did not converge: {both_b500}");
}

#[test]
fn tiny_batch_dp_fails_even_unattacked() {
    // Fig. 3: at b = 10 the DP noise alone (s ∝ 1/b) prevents convergence
    // to the clean loss.
    // Average over seeds: the b = 10 DP gap is real but noisy at this
    // reduced scale (the paper's Fig. 3 runs 1000 steps on the full set).
    let clean: f64 = (1..=3).map(|s| tail(10, None, None, s)).sum::<f64>() / 3.0;
    let dp: f64 = (1..=3).map(|s| tail(10, Some(0.2), None, s)).sum::<f64>() / 3.0;
    assert!(
        dp > clean + 0.04,
        "DP at b=10 unexpectedly fine: clean {clean}, dp {dp}"
    );
}

#[test]
fn foe_attack_shows_same_antagonism() {
    let attacked = tail(50, None, Some("foe"), 1);
    let both = tail(50, Some(0.2), Some("foe"), 1);
    assert!(
        both > attacked + 0.02,
        "FoE: no degradation with DP: {attacked} vs {both}"
    );
}
