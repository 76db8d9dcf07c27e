//! End-to-end coverage of the component registry: a user-defined GAR —
//! implemented here, outside every workspace crate — registered by id and
//! driven through `ExperimentBuilder` to a `RunHistory`, plus the
//! registry's error contract and the JSON round trip of component specs.

use dpbyz::gars::{Gar, GarError, GarScratch};
use dpbyz::prelude::*;
use dpbyz::tensor::Vector;
use dpbyz::RegistryError;
use std::sync::Arc;

/// A third-party aggregation rule: coordinate-wise midrange of the two
/// most extreme submissions, then averaged with the mean — deliberately
/// not any built-in. Deterministic and translation-equivariant, which is
/// all the engines require.
struct MidrangeMix {
    /// Weight on the midrange term.
    blend: f64,
}

impl Gar for MidrangeMix {
    fn name(&self) -> &'static str {
        "midrange-mix"
    }

    fn aggregate_into(
        &self,
        gradients: &[Vector],
        _f: usize,
        _scratch: &mut GarScratch,
        out: &mut Vector,
    ) -> Result<(), GarError> {
        let first = gradients.first().ok_or(GarError::Empty)?;
        let dim = first.dim();
        let mean = Vector::mean(gradients).map_err(|_| GarError::Empty)?;
        out.resize(dim, 0.0);
        for j in 0..dim {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for g in gradients {
                lo = lo.min(g[j]);
                hi = hi.max(g[j]);
            }
            let midrange = 0.5 * (lo + hi);
            out[j] = self.blend * midrange + (1.0 - self.blend) * mean[j];
        }
        Ok(())
    }

    fn kappa(&self, _n: usize, _f: usize) -> Option<f64> {
        None
    }

    fn max_byzantine(&self, _n: usize) -> usize {
        0
    }
}

#[test]
fn custom_gar_registers_and_runs_through_builder() {
    register_gar("midrange-mix", |spec| {
        Ok(Arc::new(MidrangeMix {
            blend: spec.f64_or("blend", 0.5),
        }))
    })
    .expect("fresh id registers");

    // The custom id is now a first-class experiment component.
    let mut exp = Experiment::builder()
        .steps(12)
        .dataset_size(400)
        .gar(ComponentSpec::new("midrange-mix").with("blend", 0.25))
        .build()
        .expect("custom gar resolves");

    let sequential = exp.run(7).expect("sequential run");
    assert_eq!(sequential.train_loss.len(), 12);
    // Training with the custom rule actually optimizes.
    assert!(
        sequential.tail_loss(3) < sequential.train_loss[0],
        "custom GAR failed to train: {} -> {}",
        sequential.train_loss[0],
        sequential.tail_loss(3)
    );

    // Parameters reach the factory: a different blend changes the run.
    exp.gar = ComponentSpec::new("midrange-mix").with("blend", 0.75);
    let other = exp.run(7).expect("other blend runs");
    assert_ne!(sequential, other);
}

#[test]
fn duplicate_id_is_rejected() {
    register_gar("dup-probe", |_| Ok(Arc::new(MidrangeMix { blend: 0.5 })))
        .expect("first registration succeeds");
    let err = register_gar("dup-probe", |_| Ok(Arc::new(MidrangeMix { blend: 0.5 })))
        .expect_err("second registration fails");
    assert_eq!(err, RegistryError::DuplicateId("dup-probe".into()));
    // Built-ins are protected the same way.
    let err = register_gar("krum", |_| Ok(Arc::new(MidrangeMix { blend: 0.5 })))
        .expect_err("built-in ids are taken");
    assert!(matches!(err, RegistryError::DuplicateId(_)));
}

#[test]
fn unknown_id_error_lists_available_ids() {
    let err = Experiment::builder()
        .gar("median-of-meanz")
        .build()
        .expect_err("unknown id fails at build");
    let message = err.to_string();
    assert!(
        message.contains("median-of-meanz"),
        "message names the bad id: {message}"
    );
    // The error enumerates what *is* registered, so the fix is in the
    // message itself.
    for built_in in ["average", "krum", "mda", "median"] {
        assert!(
            message.contains(built_in),
            "message lists `{built_in}`: {message}"
        );
    }

    // Same contract for attacks.
    let err = Experiment::builder()
        .attack("alie2")
        .build()
        .expect_err("unknown attack fails");
    let message = err.to_string();
    assert!(
        message.contains("alie2") && message.contains("sign-flip"),
        "{message}"
    );
}

#[test]
fn component_specs_round_trip_through_json() {
    let spec = ComponentSpec::new("alie")
        .with("nu", 2.5)
        .with("rounds", 7u64);
    let json = serde_json::to_string(&spec).unwrap();
    let back: ComponentSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(back, spec);
    assert_eq!(back.f64("nu"), Some(2.5));
    assert_eq!(back.u64("rounds"), Some(7));

    // The paper's FoE setting compares equal after the trip too.
    let foe = ComponentSpec::new("foe").with("nu", 1.1);
    let back: ComponentSpec = serde_json::from_str(&serde_json::to_string(&foe).unwrap()).unwrap();
    assert_eq!(back, foe);
}

#[test]
fn custom_attack_and_mechanism_register_end_to_end() {
    // A "stale replay" attack: resend the first honest gradient scaled.
    struct Replay;
    impl dpbyz::attacks::Attack for Replay {
        fn name(&self) -> &'static str {
            "stale-replay"
        }
        fn forge_into(
            &self,
            ctx: &dpbyz::attacks::AttackContext<'_>,
            _rng: &mut dpbyz::tensor::Prng,
            out: &mut Vector,
        ) {
            out.copy_from(&ctx.observed()[0]);
            out.scale(0.5);
        }
    }
    register_attack("stale-replay", |_| Ok(Arc::new(Replay))).expect("registers");

    // A fixed-sigma mechanism that ignores budget calibration.
    struct FixedSigma(f64);
    impl dpbyz::dp::Mechanism for FixedSigma {
        fn perturb_in_place(&self, gradient: &mut Vector, rng: &mut dpbyz::tensor::Prng) {
            for x in gradient.as_mut_slice() {
                *x += rng.normal(0.0, self.0);
            }
        }
        fn per_coordinate_std(&self) -> f64 {
            self.0
        }
        fn total_noise_variance(&self, dim: usize) -> f64 {
            dim as f64 * self.0 * self.0
        }
        fn name(&self) -> &'static str {
            "fixed-sigma"
        }
    }
    register_mechanism("fixed-sigma", |spec| {
        Ok(Arc::new(FixedSigma(spec.f64_or("sigma", 0.01))))
    })
    .expect("registers");

    let exp = Experiment::builder()
        .steps(8)
        .dataset_size(300)
        .gar("median")
        .attack("stale-replay")
        .byzantine(2)
        .mechanism(ComponentSpec::new("fixed-sigma").with("sigma", 0.005))
        .build()
        .unwrap();
    let h = exp.run(3).unwrap();
    assert_eq!(h.train_loss.len(), 8);
    // The custom mechanism injects noise: submitted VN exceeds clean VN.
    assert!(h.mean_vn_submitted() > h.mean_vn_clean());
}

#[test]
fn third_party_budget_calibrated_mechanism_degrades_without_budget() {
    // A third-party mechanism that calibrates its sigma from the injected
    // privacy budget, registered with the `requires_budget` capability —
    // it must get the same no-budget degradation to the identity
    // mechanism as the built-in `gaussian`/`laplace`.
    struct BudgetNoise(f64);
    impl dpbyz::dp::Mechanism for BudgetNoise {
        fn perturb_in_place(&self, gradient: &mut Vector, rng: &mut dpbyz::tensor::Prng) {
            for x in gradient.as_mut_slice() {
                *x += rng.normal(0.0, self.0);
            }
        }
        fn per_coordinate_std(&self) -> f64 {
            self.0
        }
        fn total_noise_variance(&self, dim: usize) -> f64 {
            dim as f64 * self.0 * self.0
        }
        fn name(&self) -> &'static str {
            "budget-noise"
        }
    }
    register_mechanism_with(
        "budget-noise",
        MechanismCapabilities::budget_calibrated(),
        |spec| {
            let epsilon = spec.f64("epsilon").ok_or_else(|| RegistryError::Build {
                id: "budget-noise".into(),
                message: "missing required parameter `epsilon`".into(),
            })?;
            Ok(Arc::new(BudgetNoise(0.01 / epsilon)))
        },
    )
    .expect("registers");

    let base = || {
        Experiment::builder()
            .steps(6)
            .dataset_size(300)
            .gar("average")
    };
    // No budget: the spec degrades to the identity mechanism instead of
    // failing calibration, exactly like the built-in no-DP baselines.
    let no_budget = base().mechanism("budget-noise").build().unwrap();
    let baseline = base().mechanism("none").build().unwrap();
    assert_eq!(no_budget.run(2).unwrap(), baseline.run(2).unwrap());

    // With a budget the custom mechanism runs (and injects noise).
    let with_budget = base()
        .mechanism("budget-noise")
        .epsilon(0.2)
        .build()
        .unwrap();
    let h = with_budget.run(2).unwrap();
    assert_ne!(h, baseline.run(2).unwrap());
    assert!(h.mean_vn_submitted() > h.mean_vn_clean());

    // A capability-free custom mechanism is NOT degraded: it resolves as
    // specified even without a budget.
    struct AlwaysNoise;
    impl dpbyz::dp::Mechanism for AlwaysNoise {
        fn perturb_in_place(&self, gradient: &mut Vector, rng: &mut dpbyz::tensor::Prng) {
            for x in gradient.as_mut_slice() {
                *x += rng.normal(0.0, 0.05);
            }
        }
        fn per_coordinate_std(&self) -> f64 {
            0.05
        }
        fn total_noise_variance(&self, dim: usize) -> f64 {
            dim as f64 * 0.05 * 0.05
        }
        fn name(&self) -> &'static str {
            "always-noise"
        }
    }
    register_mechanism("always-noise", |_| Ok(Arc::new(AlwaysNoise))).expect("registers");
    let plain = base().mechanism("always-noise").build().unwrap();
    let h = plain.run(2).unwrap();
    assert!(h.mean_vn_submitted() > h.mean_vn_clean());
}
