//! End-to-end coverage of the scenario-pack subsystem through the
//! facade: built-in packs expand and run, the `attack-zoo` cross product
//! is bit-identical across pool sizes, out-of-tree crates register and
//! sweep custom packs, and packs round-trip through the JSON spec format.

use dpbyz::prelude::*;
use dpbyz::sweep::SweepCell;

fn quick_base() -> ExperimentBuilder {
    Experiment::builder()
        .steps(3)
        .dataset_size(200)
        .batch_size(10)
}

/// The acceptance gate: `with_pack("attack-zoo")` — every registered GAR
/// × every registered attack — runs end-to-end and produces bit-identical
/// histories at pool sizes 1 and 8.
///
/// The pack is expanded ONCE and replayed as explicit cells for the two
/// pool sizes: other tests in this binary may register components
/// concurrently, and `attack-zoo` reads the registries at resolve time,
/// so expanding twice could legitimately see different zoos.
#[test]
fn attack_zoo_is_bit_identical_at_pool_sizes_1_and_8() {
    let cells: Vec<SweepCell> = SweepBuilder::over(quick_base())
        .with_pack("attack-zoo")
        .cells()
        .expect("attack-zoo expands");
    assert!(cells.len() >= 9 * 9, "zoo too small: {} cells", cells.len());
    // The four new components are in the zoo.
    for label in [
        "attack-zoo/centered-clipping/alie",
        "attack-zoo/bucketing/alie",
        "attack-zoo/mda/ipm",
        "attack-zoo/mda/rescaling",
    ] {
        assert!(cells.iter().any(|c| c.label == label), "missing {label}");
    }

    let run = |pool: usize| {
        let mut sweep = SweepBuilder::new().seeds(&[1]).pool_size(pool);
        for cell in &cells {
            sweep = sweep.cell(cell.label.clone(), cell.experiment.clone());
        }
        sweep.run().expect("attack-zoo runs")
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial.cells.len(), cells.len());
    for (a, b) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(a.label, b.label);
        assert_eq!(
            a.histories, b.histories,
            "cell {} diverged across pool sizes",
            a.label
        );
    }
}

#[test]
fn all_four_new_components_resolve_by_id_and_run() {
    for (gar, attack, f) in [
        ("centered-clipping", "ipm", 5),
        ("centered-clipping", "rescaling", 5),
        ("bucketing", "ipm", 2),
        ("bucketing", "rescaling", 2),
    ] {
        let exp = quick_base()
            .gar(gar)
            .attack(attack)
            .byzantine(f)
            .build()
            .unwrap_or_else(|e| panic!("{gar}/{attack}: {e}"));
        let h = exp.run(1).unwrap_or_else(|e| panic!("{gar}/{attack}: {e}"));
        assert_eq!(h.train_loss.len(), 3, "{gar}/{attack}");
    }
}

#[test]
fn paper_core_runs_end_to_end_with_prefixed_labels() {
    let results = SweepBuilder::over(quick_base())
        .with_pack("paper-core")
        .seeds(&[1, 2])
        .run()
        .expect("paper-core runs");
    assert_eq!(results.cells.len(), 6);
    assert_eq!(results.cells[0].label, "paper-core/clean/nodp");
    // The /dp cells actually carry a budget; their clean/nodp twins don't.
    assert!(results
        .get("paper-core/mda/alie/dp")
        .unwrap()
        .experiment
        .budget
        .is_some());
    assert!(results
        .get("paper-core/mda/alie/nodp")
        .unwrap()
        .experiment
        .budget
        .is_none());
    // Two seeds, two histories per cell.
    assert_eq!(results.cells[0].histories.len(), 2);
}

#[test]
fn clipping_study_covers_the_new_defense_attack_matrix() {
    let results = SweepBuilder::over(quick_base())
        .with_pack("clipping-study")
        .seeds(&[1])
        .run()
        .expect("clipping-study runs");
    assert_eq!(results.cells.len(), 9); // 3 defenses × 3 attacks
    for defense in ["cc-tight", "cc-loose", "bucket-median"] {
        for attack in ["alie", "ipm", "rescaling"] {
            assert!(
                results
                    .get(&format!("clipping-study/{defense}/{attack}"))
                    .is_some(),
                "missing {defense}/{attack}"
            );
        }
    }
}

/// An out-of-tree crate's workflow: define a pack against custom AND
/// built-in component ids, register it, sweep it by id — exactly like
/// components register.
#[test]
fn custom_pack_with_custom_component_registers_and_sweeps() {
    use dpbyz::gars::{Gar, GarError, GarScratch};
    use dpbyz::tensor::Vector;
    use std::sync::Arc;

    // A third-party rule: plain mean of the first k = n − f submissions.
    struct HeadMean;
    impl Gar for HeadMean {
        fn name(&self) -> &'static str {
            "head-mean"
        }
        fn aggregate_into(
            &self,
            gradients: &[Vector],
            f: usize,
            _scratch: &mut GarScratch,
            out: &mut Vector,
        ) -> Result<(), GarError> {
            let k = gradients.len().saturating_sub(f).max(1);
            Vector::mean_into(&gradients[..k], out).map_err(|_| GarError::Empty)
        }
        fn kappa(&self, _n: usize, _f: usize) -> Option<f64> {
            None
        }
        fn max_byzantine(&self, n: usize) -> usize {
            n.saturating_sub(1) / 2
        }
    }
    register_gar("head-mean", |_| Ok(Arc::new(HeadMean))).expect("registers");

    let pack = ScenarioPack::new("third-party-study", "custom rule vs two attacks")
        .cell(
            PackCell::new("head-mean/ipm")
                .gar("head-mean")
                .attack(ComponentSpec::new("ipm").with("epsilon", 0.5))
                .byzantine(3),
        )
        .cell(
            PackCell::new("head-mean/rescaling")
                .gar("head-mean")
                .attack("rescaling")
                .byzantine(3)
                .batch_size(5),
        );
    register_scenario_pack(pack.clone()).expect("pack registers");

    // Duplicate pack ids are rejected like component ids.
    let err = register_scenario_pack(ScenarioPack::new("third-party-study", "shadow"))
        .expect_err("duplicate pack id");
    assert!(matches!(err, dpbyz::RegistryError::DuplicateId(_)));

    let results = SweepBuilder::over(quick_base())
        .with_pack("third-party-study")
        .seeds(&[1])
        .run()
        .expect("custom pack runs");
    assert_eq!(results.cells.len(), 2);
    assert_eq!(results.cells[0].label, "third-party-study/head-mean/ipm");
    // Per-cell axis values reached the experiment.
    assert_eq!(
        results.cells[1].experiment.config.batch_size, 5,
        "pack cell batch override lost"
    );
    assert_eq!(results.cells[0].experiment.config.n_byzantine, 3);

    // The custom pack also ships as JSON and comes back equal.
    let json = pack.to_json().expect("serializes");
    let back = ScenarioPack::from_json(&json).expect("deserializes");
    assert_eq!(back, pack);

    // And the registered custom GAR joined the attack-zoo automatically.
    let zoo = scenario_pack("attack-zoo").expect("resolves");
    assert!(
        zoo.cells.iter().any(|c| c.label.starts_with("head-mean/")),
        "late-registered GAR missing from attack-zoo"
    );
}

#[test]
fn unknown_pack_id_lists_registered_packs() {
    let err = SweepBuilder::over(quick_base())
        .with_pack("not-a-pack")
        .run()
        .expect_err("unknown pack fails");
    let message = err.to_string();
    assert!(
        message.contains("not-a-pack")
            && message.contains("paper-core")
            && message.contains("attack-zoo"),
        "{message}"
    );
}
