//! Golden-history pins for the round engines.
//!
//! The digests below were re-recorded (once, deliberately) when the
//! explicit vectorized kernel layer landed — see the note on `GOLDEN`.
//! Every future refactor must reproduce them byte-for-byte — the
//! "bit-identical histories" acceptance gate. The cells run inline; the
//! leased path is pinned to the inline one by the engine's own unit
//! tests and by the benchmark's `stress-d1e5` digest.

use dpbyz_attacks::{Attack, FallOfEmpires, InnerProductManipulation, LittleIsEnough, Rescaling};
use dpbyz_data::sampler::{BatchSource, DatasetSource, SamplingMode};
use dpbyz_data::synthetic;
use dpbyz_dp::{GaussianMechanism, LaplaceMechanism, Mechanism, NoNoise};
use dpbyz_gars::{
    Bucketing, Bulyan, CenteredClipping, CoordinateMedian, Gar, Krum, Mda, MultiKrum,
};
use dpbyz_models::{LogisticRegression, LossKind};
use dpbyz_server::{BatchGrowth, MomentumMode, Trainer, TrainingConfig};
use dpbyz_tensor::Prng;
use std::sync::Arc;

struct CellSpec {
    name: &'static str,
    n: usize,
    f: usize,
    config: fn(TrainingConfig) -> TrainingConfig,
    gar: fn() -> Arc<dyn Gar>,
    mechanism: fn() -> Arc<dyn Mechanism>,
    attack: Option<fn() -> Arc<dyn Attack>>,
}

fn cells() -> Vec<CellSpec> {
    vec![
        CellSpec {
            name: "average/gaussian/clean",
            n: 5,
            f: 0,
            config: |c| c,
            gar: || Arc::new(dpbyz_gars::Average::new()),
            mechanism: || Arc::new(GaussianMechanism::with_sigma(0.05).unwrap()),
            attack: None,
        },
        CellSpec {
            name: "krum/none/alie",
            n: 9,
            f: 2,
            config: |c| c,
            gar: || Arc::new(Krum::new()),
            mechanism: || Arc::new(NoNoise),
            attack: Some(|| Arc::new(LittleIsEnough::default())),
        },
        CellSpec {
            name: "multi-krum/gaussian/alie",
            n: 9,
            f: 2,
            config: |c| c,
            gar: || Arc::new(MultiKrum::new()),
            mechanism: || Arc::new(GaussianMechanism::with_sigma(0.02).unwrap()),
            attack: Some(|| Arc::new(LittleIsEnough::default())),
        },
        CellSpec {
            name: "median/gaussian/foe",
            n: 7,
            f: 3,
            config: |c| c,
            gar: || Arc::new(CoordinateMedian::new()),
            mechanism: || Arc::new(GaussianMechanism::with_sigma(0.03).unwrap()),
            attack: Some(|| Arc::new(FallOfEmpires::default())),
        },
        CellSpec {
            name: "mda/gaussian/alie/worker-momentum",
            n: 11,
            f: 5,
            config: |c| TrainingConfig {
                momentum_mode: MomentumMode::Worker,
                ..c
            },
            gar: || Arc::new(Mda::new()),
            mechanism: || Arc::new(GaussianMechanism::with_sigma(0.01).unwrap()),
            attack: Some(|| Arc::new(LittleIsEnough::default())),
        },
        CellSpec {
            name: "bulyan/laplace/foe",
            n: 11,
            f: 2,
            config: |c| c,
            gar: || Arc::new(Bulyan::new()),
            mechanism: || Arc::new(LaplaceMechanism::calibrate(5.0, 0.01).unwrap()),
            attack: Some(|| Arc::new(FallOfEmpires::default())),
        },
        CellSpec {
            name: "average/none/drops+ema",
            n: 5,
            f: 0,
            config: |c| TrainingConfig {
                drop_rate: 0.3,
                gradient_ema: Some(0.9),
                ..c
            },
            gar: || Arc::new(dpbyz_gars::Average::new()),
            mechanism: || Arc::new(NoNoise),
            attack: None,
        },
        CellSpec {
            name: "trimmed-mean/gaussian/batch-growth",
            n: 7,
            f: 2,
            config: |c| TrainingConfig {
                batch_growth: Some(BatchGrowth {
                    factor: 1.1,
                    max: 40,
                }),
                ..c
            },
            gar: || Arc::new(dpbyz_gars::TrimmedMean::new()),
            mechanism: || Arc::new(GaussianMechanism::with_sigma(0.02).unwrap()),
            attack: Some(|| Arc::new(FallOfEmpires::default())),
        },
        // The four components added with the scenario-pack subsystem:
        // digests recorded at introduction, pinning their behavior for
        // every future refactor.
        CellSpec {
            name: "centered-clipping/gaussian/ipm",
            n: 11,
            f: 5,
            config: |c| c,
            gar: || Arc::new(CenteredClipping::new(0.05, 3)),
            mechanism: || Arc::new(GaussianMechanism::with_sigma(0.02).unwrap()),
            attack: Some(|| Arc::new(InnerProductManipulation::default())),
        },
        CellSpec {
            name: "centered-clipping/laplace/rescaling",
            n: 7,
            f: 3,
            config: |c| c,
            gar: || Arc::new(CenteredClipping::new(0.1, 4)),
            mechanism: || Arc::new(LaplaceMechanism::calibrate(5.0, 0.01).unwrap()),
            attack: Some(|| Arc::new(Rescaling::new(-0.1))),
        },
        CellSpec {
            name: "bucketing-median/none/rescaling",
            n: 11,
            f: 2,
            config: |c| c,
            gar: || Arc::new(Bucketing::new(Arc::new(CoordinateMedian::new()), 2)),
            mechanism: || Arc::new(NoNoise),
            attack: Some(|| Arc::new(Rescaling::new(-0.05))),
        },
        CellSpec {
            name: "bucketing-krum/gaussian/alie",
            n: 11,
            f: 1,
            config: |c| c,
            gar: || Arc::new(Bucketing::new(Arc::new(Krum::new()), 2)),
            mechanism: || Arc::new(GaussianMechanism::with_sigma(0.01).unwrap()),
            attack: Some(|| Arc::new(LittleIsEnough::default())),
        },
    ]
}

fn build_trainer(spec: &CellSpec) -> Trainer {
    let mut rng = Prng::seed_from_u64(41);
    let ds = Arc::new(synthetic::phishing_like(&mut rng, 400));
    let (train, test) = ds.split(0.8, &mut rng).unwrap();
    let (train, test) = (Arc::new(train), Arc::new(test));
    let model = Arc::new(LogisticRegression::new(68, LossKind::SigmoidMse));
    let base = TrainingConfig {
        n_workers: spec.n,
        n_byzantine: spec.f,
        batch_size: 10,
        steps: 20,
        eval_every: 7,
        ..TrainingConfig::default()
    };
    let config = (spec.config)(base).validate().unwrap();
    let sources: Vec<Box<dyn BatchSource>> = (0..spec.n)
        .map(|_| {
            Box::new(DatasetSource::new(
                train.clone(),
                SamplingMode::WithReplacement,
            )) as Box<dyn BatchSource>
        })
        .collect();
    let mut trainer = Trainer::new(config, model, sources, Some(test))
        .gar((spec.gar)())
        .mechanism((spec.mechanism)());
    if let Some(attack) = spec.attack {
        trainer = trainer.attack(attack());
    }
    trainer
}

/// Digests re-recorded **once** when the explicit 4-lane kernel layer
/// landed (`dpbyz_tensor::kernels`): the blocked reductions (dot, norms,
/// pairwise distances, column sums) use a fixed machine-independent
/// summation order that differs from the historical sequential fold in
/// the last bits, so the pre-kernel digests could not be preserved. The
/// kernel-equivalence proptest suite (crates/tensor/src/kernels.rs) pins
/// every vectorized kernel to ≤ 1e-12 relative error of the retained
/// scalar reference, and the elementwise kernels bit-identical, which is
/// the evidence backing this one-time re-record. The engine must
/// reproduce these byte-for-byte on every machine; pool-size determinism
/// is pinned separately in parallel_sweep.rs.
const GOLDEN: [(&str, u64); 12] = [
    ("average/gaussian/clean", 0x054dacbf884d4bfe),
    ("krum/none/alie", 0x6f1174d851f125a8),
    ("multi-krum/gaussian/alie", 0x0a72d85344ff7cbf),
    ("median/gaussian/foe", 0xa5ed3efd07cfc712),
    ("mda/gaussian/alie/worker-momentum", 0xe0039ac4e84aac17),
    ("bulyan/laplace/foe", 0x22e0234422f8d82e),
    ("average/none/drops+ema", 0x29907f31071e3bae),
    ("trimmed-mean/gaussian/batch-growth", 0xd0a36370a405b6bf),
    ("centered-clipping/gaussian/ipm", 0xfc49d81779412d69),
    ("centered-clipping/laplace/rescaling", 0xc53bdddc0557db34),
    ("bucketing-median/none/rescaling", 0x1d394b1b47e2c5f3),
    ("bucketing-krum/gaussian/alie", 0x8f2beb897f10f7c1),
];

#[test]
fn refactored_engine_reproduces_pre_refactor_histories() {
    let specs = cells();
    assert_eq!(specs.len(), GOLDEN.len());
    for (spec, &(name, expected)) in specs.iter().zip(&GOLDEN) {
        assert_eq!(spec.name, name);
        let seq = build_trainer(spec).run(3).unwrap();
        assert_eq!(
            seq.digest(),
            expected,
            "{name}: sequential engine diverged from the recorded history"
        );
    }
}
