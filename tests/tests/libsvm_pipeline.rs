//! Drop-in real-data path: serialize a dataset to the LIBSVM text format
//! (the format of the paper's `phishing` file), parse it back, and train
//! through the full distributed pipeline via `Workload::Provided`.

use dpbyz_core::pipeline::{Experiment, FigureConfig, Workload};
use dpbyz_data::{libsvm, synthetic};
use dpbyz_server::TrainingConfig;
use dpbyz_tensor::Prng;
use std::sync::Arc;

#[test]
fn libsvm_roundtrip_preserves_training_behaviour() {
    let mut rng = Prng::seed_from_u64(21);
    let original = synthetic::phishing_like(&mut rng, 1200);

    // Through the wire format and back (what loading the real file does).
    let text = libsvm::serialize(&original);
    let parsed = libsvm::parse(&text, Some(original.num_features())).expect("parse back");
    assert_eq!(parsed, original);

    let mut split_rng = Prng::seed_from_u64(1);
    let (train, test) = parsed.split(0.8, &mut split_rng).expect("split");

    let base = Experiment::paper_figure(FigureConfig::default()).expect("valid");
    let config = TrainingConfig::builder()
        .workers(5, 0)
        .batch_size(25)
        .steps(120)
        .lr(base.config.lr)
        .momentum(base.config.momentum)
        .clip(base.config.clip)
        .eval_every(30)
        .build()
        .expect("valid");
    let exp = Experiment {
        workload: Workload::Provided {
            train: Arc::new(train),
            test: Arc::new(test),
        },
        config,
        gar: "average".into(),
        attack: None,
        budget: None,
        mechanism: "gaussian".into(),
        backend: "sequential".into(),
        dp_reference_g_max: None,
    };
    let h = exp.run(1).expect("runs");
    assert!(
        h.final_accuracy().unwrap() > 0.75,
        "accuracy {}",
        h.final_accuracy().unwrap()
    );
}

#[test]
fn libsvm_file_io_roundtrip() {
    let mut rng = Prng::seed_from_u64(5);
    let ds = synthetic::phishing_like(&mut rng, 80);
    let dir = std::env::temp_dir().join("dpbyz-libsvm-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("phishing_like.libsvm");
    std::fs::write(&path, libsvm::serialize(&ds)).unwrap();
    let back = libsvm::parse_file(&path, Some(ds.num_features())).expect("parse file");
    assert_eq!(back, ds);
    std::fs::remove_file(&path).ok();
}
