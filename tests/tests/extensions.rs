//! End-to-end coverage of the extension surface: Mimic through the
//! pipeline, amplification arithmetic against mechanism calibration, and
//! per-run CSV export.

use dpbyz_core::pipeline::{Experiment, FigureConfig};
use dpbyz_core::ComponentSpec;
use dpbyz_dp::amplification;
use dpbyz_dp::{GaussianMechanism, PrivacyBudget};

#[test]
fn mimic_is_harmless_on_iid_data() {
    // With homogeneous (i.i.d.-sampled) workers, replaying one honest
    // worker's gradient biases nothing in expectation — the attack's bite
    // requires heterogeneity. MDA under Mimic must train like the clean
    // run.
    let fig = FigureConfig {
        batch_size: 50,
        epsilon: None,
        attack: Some(ComponentSpec::new("mimic").with("target", 0usize)),
        steps: 150,
        dataset_size: 2000,
        ..FigureConfig::default()
    };
    let mimic = Experiment::paper_figure(fig.clone())
        .unwrap()
        .run(1)
        .unwrap();
    let clean = Experiment::paper_figure(FigureConfig {
        attack: None,
        ..fig
    })
    .unwrap()
    .run(1)
    .unwrap();
    assert!(
        mimic.tail_loss(10) < clean.tail_loss(10) + 0.1,
        "mimic unexpectedly harmful on iid data: {} vs {}",
        mimic.tail_loss(10),
        clean.tail_loss(10)
    );
}

#[test]
fn mimic_with_other_gars_also_trains() {
    for gar in ["krum", "median"] {
        let exp = Experiment::paper_figure_with_gar(
            FigureConfig {
                batch_size: 50,
                epsilon: None,
                attack: Some(ComponentSpec::new("mimic").with("target", 2usize)),
                steps: 100,
                dataset_size: 1200,
                ..FigureConfig::default()
            },
            gar,
            5,
        )
        .unwrap();
        let h = exp.run(1).unwrap();
        assert!(
            h.tail_loss(10) < h.train_loss[0],
            "{gar} failed under mimic"
        );
    }
}

#[test]
fn shuffle_amplification_buys_back_noise_in_mechanism_terms() {
    // Wire the amplification result into the actual mechanism: the relaxed
    // local ε₀ from a shuffler yields a strictly smaller calibrated sigma
    // than the central target used locally.
    let delta = 1e-6;
    let central = 0.05;
    let n = 100_000;
    let local = amplification::local_epsilon_budget(central, n, delta).unwrap();
    assert!(local > central);

    let strict = GaussianMechanism::for_clipped_gradients(
        PrivacyBudget::new(central, delta).unwrap(),
        0.01,
        50,
    )
    .unwrap();
    let relaxed = GaussianMechanism::for_clipped_gradients(
        PrivacyBudget::new(local, delta).unwrap(),
        0.01,
        50,
    )
    .unwrap();
    let gain = strict.sigma() / relaxed.sigma();
    assert!(
        (gain - local / central).abs() < 1e-9,
        "sigma gain {gain} vs epsilon relaxation {}",
        local / central
    );
    assert!(gain > 3.0);
}

#[test]
fn run_history_csv_roundtrips_key_columns() {
    let exp = Experiment::paper_figure(FigureConfig {
        batch_size: 20,
        epsilon: Some(0.2),
        attack: None,
        steps: 12,
        dataset_size: 400,
        ..FigureConfig::default()
    })
    .unwrap();
    let h = exp.run(1).unwrap();
    let csv = h.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 13); // header + 12 steps
                                 // Spot-check one full row against the history.
    let row: Vec<&str> = lines[1].split(',').collect();
    assert_eq!(row[0], "1");
    assert_eq!(row[1].parse::<f64>().unwrap(), h.train_loss[0]);
    assert_eq!(row[4].parse::<f64>().unwrap(), h.grad_norm[0]);
}
