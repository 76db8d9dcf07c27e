//! Fault injection (§2.1: non-received gradients become zero vectors) and
//! the §7 extensions, exercised end-to-end.

use dpbyz_core::pipeline::{Experiment, PipelineError, Workload};
use dpbyz_gars::GarError;
use dpbyz_server::LrSchedule;

fn base(steps: u32) -> Experiment {
    Experiment::builder()
        .batch_size(20)
        .epsilon(0.2)
        .attack("alie")
        .steps(steps)
        .dataset_size(800)
        .build()
        .expect("valid configuration")
}

#[test]
fn training_survives_moderate_drops() {
    let mut exp = Experiment::builder()
        .batch_size(50)
        .steps(150)
        .dataset_size(2000)
        .build()
        .expect("valid");
    exp.config.drop_rate = 0.2;
    let h = exp.run(1).expect("runs");
    assert!(
        h.tail_loss(10) < h.train_loss[0] * 0.8,
        "training failed under 20% drops"
    );
    assert!(h.final_accuracy().unwrap() > 0.75);
}

#[test]
fn drops_are_orthogonal_to_attack_rng() {
    // Enabling faults must not perturb the attack's random stream: the
    // forged gradients of a deterministic attack (ALIE is
    // deterministic given honest submissions) depend only on honest
    // submissions, and those are computed before drops. Weak observable:
    // first-step train loss (computed pre-drop) matches exactly.
    let no_drops = base(5).run(3).expect("runs");
    let mut dropped = base(5);
    dropped.config.drop_rate = 0.5;
    let with_drops = dropped.run(3).expect("runs");
    assert_eq!(no_drops.train_loss[0], with_drops.train_loss[0]);
    assert_eq!(no_drops.vn_clean[0], with_drops.vn_clean[0]);
    // But the trajectories must diverge afterwards.
    assert_ne!(no_drops.train_loss, with_drops.train_loss);
}

#[test]
fn heavy_drops_degrade_attacked_dp_training_further() {
    let clean = base(120).run(1).expect("runs").tail_loss(10);
    let mut faulty = base(120);
    faulty.config.drop_rate = 0.6;
    let dropped = faulty.run(1).expect("runs").tail_loss(10);
    // 60% loss of honest gradients under DP+ALIE cannot help; allow
    // equality-ish noise but no miracle improvement.
    assert!(
        dropped > clean - 0.05,
        "drops implausibly improved training: {clean} -> {dropped}"
    );
}

/// A diverged in-process run under an order-statistic rule: step 1
/// overflows the parameters, step 2's gradients are NaN, and the median
/// has no answer for NaN, nor has a Krum score a nearest neighbour, nor
/// an MDA subset a diameter. The run ends with a typed error instead of a
/// panic, on every order-statistic rule. Bulyan and MDA look at distances
/// only with f > 0, which needs an armed attack (an unarmed run zeroes
/// f).
#[test]
fn a_diverged_run_under_an_order_statistic_rule_returns_a_typed_error() {
    let cases = [
        ("median", 5, None),
        ("trimmed-mean", 5, None),
        ("meamed", 5, None),
        ("phocas", 5, None),
        ("krum", 5, None),
        ("multi-krum", 5, None),
        ("bulyan", 7, Some(1)),
        // MDA's exact subset search, and its greedy fallback (C(25, 13)
        // subsets are past the enumeration limit).
        ("mda", 11, Some(5)),
        ("mda", 25, Some(12)),
    ];
    for (gar, n, byzantine) in cases {
        let mut builder = Experiment::builder()
            .workload(Workload::MeanEstimation {
                dim: 4,
                sigma: 10.0,
                data_seed: 5,
            })
            .workers(n, 0)
            .batch_size(1)
            .steps(6)
            .lr(LrSchedule::Constant(1e308))
            .momentum(0.0)
            .clip(1e9)
            .eval_every(0)
            .gar(gar);
        if let Some(f) = byzantine {
            builder = builder.attack("alie").byzantine(f);
        }
        let exp = builder.build().unwrap();
        match exp.run(1) {
            Err(PipelineError::Gar(GarError::NaN)) => {}
            other => panic!("{gar}: expected a NaN aggregation error, got {other:?}"),
        }
    }
}
