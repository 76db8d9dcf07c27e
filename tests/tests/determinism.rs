//! Reproducibility contracts: seeded determinism and engine equivalence.

use dpbyz_core::pipeline::{Experiment, FigureConfig};

fn experiment_at(batch_size: usize) -> Experiment {
    Experiment::paper_figure(FigureConfig {
        batch_size,
        epsilon: Some(0.2),
        attack: Some("alie".into()),
        steps: 25,
        dataset_size: 600,
        ..FigureConfig::default()
    })
    .expect("valid configuration")
}

fn experiment() -> Experiment {
    experiment_at(20)
}

#[test]
fn same_seed_same_history() {
    let exp = experiment();
    assert_eq!(exp.run(42).unwrap(), exp.run(42).unwrap());
}

#[test]
fn different_seed_different_history() {
    let exp = experiment();
    assert_ne!(exp.run(1).unwrap(), exp.run(2).unwrap());
}

#[test]
fn leased_workers_bit_identical_to_the_sim_engine() {
    // The strongest cross-engine contract: identical histories for the
    // full DP + attack configuration, several seeds. At b = 200 (d = 69)
    // the in-process engine computes each honest worker on its own pool
    // thread in every round a core is free of other runs (while other
    // tests of this binary run, some rounds go inline); the sim backend
    // computes every worker inline on one thread and moves the gradients
    // as wire frames.
    dpbyz_net::install();
    let mut exp = experiment_at(200);
    for seed in [1u64, 7, 99] {
        exp.backend = "sequential".into();
        let leased = exp.run(seed).unwrap();
        exp.backend = "sim".into();
        let sim = exp.run(seed).unwrap();
        assert_eq!(leased, sim, "engines diverged at seed {seed}");
    }
}

#[test]
fn dataset_generation_is_independent_of_run_seed() {
    // The data seed is fixed in the spec: two run seeds must train on the
    // same dataset (the paper trains all seeds on the same split).
    let exp = experiment();
    let h1 = exp.run(1).unwrap();
    let h2 = exp.run(2).unwrap();
    // Same dataset + same init (seeded separately from data) means the
    // first-step loss (before any stochastic divergence can compound)
    // should be computed over batches from the same pool — weak check:
    // losses are in the same ballpark.
    assert!((h1.train_loss[0] - h2.train_loss[0]).abs() < 0.2);
}

#[test]
fn full_history_equality_covers_all_metrics() {
    // Guard against a metric being recorded nondeterministically.
    let a = experiment().run(5).unwrap();
    let b = experiment().run(5).unwrap();
    assert_eq!(a.train_loss, b.train_loss);
    assert_eq!(a.test_accuracy, b.test_accuracy);
    assert_eq!(a.vn_clean, b.vn_clean);
    assert_eq!(a.vn_submitted, b.vn_submitted);
    assert_eq!(a.grad_norm, b.grad_norm);
    assert_eq!(a.final_params, b.final_params);
}
