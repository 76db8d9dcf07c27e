//! `dpbyz` — the facade crate for the *DP + Byzantine SGD* workspace.
//!
//! One dependency, one import, the whole system: the fluent
//! [`ExperimentBuilder`], the extensible component [`registry`], streaming
//! [`RunObserver`]s, and re-exports of every subsystem crate
//! (reproducing *Differential Privacy and Byzantine Resilience in SGD: Do
//! They Add Up?*, Guerraoui et al., PODC 2021).
//!
//! # Quickstart
//!
//! Build an experiment from string component ids, run it over seeds:
//!
//! ```
//! use dpbyz::prelude::*;
//!
//! let exp = Experiment::builder()
//!     .steps(20)
//!     .dataset_size(300)
//!     .gar("mda")
//!     .attack("alie")
//!     .epsilon(0.2)
//!     .build()
//!     .unwrap();
//! let histories = exp.run_seeds(&[1, 2, 3]).unwrap();
//! assert_eq!(histories.len(), 3);
//! assert_eq!(histories[0].train_loss.len(), 20);
//! ```
//!
//! # Streaming metrics
//!
//! Attach a [`RunObserver`] to consume per-step telemetry while the run
//! executes (observation is passive — histories stay bit-identical):
//!
//! ```
//! use dpbyz::prelude::*;
//! use std::sync::{Arc, Mutex};
//!
//! let exp = Experiment::builder()
//!     .steps(5)
//!     .dataset_size(200)
//!     .build()
//!     .unwrap();
//! let streamed = Arc::new(Mutex::new(Vec::new()));
//! let sink = streamed.clone();
//! let history = exp
//!     .run_with_observer(
//!         1,
//!         Box::new(FnObserver::new(move |m: &StepMetrics<'_>| {
//!             sink.lock().unwrap().push(m.train_loss);
//!         })),
//!     )
//!     .unwrap();
//! assert_eq!(*streamed.lock().unwrap(), history.train_loss);
//! ```
//!
//! # Extending the component zoo
//!
//! Third-party GARs/attacks/mechanisms register by id — no core edits:
//!
//! ```
//! use dpbyz::prelude::*;
//! use dpbyz::gars::{Gar, GarError, GarScratch};
//! use dpbyz::tensor::Vector;
//! use std::sync::Arc;
//!
//! struct Clamp;
//! impl Gar for Clamp {
//!     fn name(&self) -> &'static str { "clamp-demo" }
//!     fn aggregate_into(
//!         &self,
//!         g: &[Vector],
//!         _f: usize,
//!         _scratch: &mut GarScratch,
//!         out: &mut Vector,
//!     ) -> Result<(), GarError> {
//!         Vector::mean_into(g, out).map_err(|_| GarError::Empty)
//!     }
//!     fn kappa(&self, _n: usize, _f: usize) -> Option<f64> { None }
//!     fn max_byzantine(&self, _n: usize) -> usize { 0 }
//! }
//!
//! register_gar("clamp-demo", |_spec| Ok(Arc::new(Clamp))).unwrap();
//! let exp = Experiment::builder()
//!     .steps(3)
//!     .dataset_size(200)
//!     .gar("clamp-demo")
//!     .build()
//!     .unwrap();
//! assert_eq!(exp.run(1).unwrap().train_loss.len(), 3);
//! ```
//!
//! # Scenario packs
//!
//! Curated GAR × attack studies resolve by id too: a
//! [`ScenarioPack`] is a registered bundle of labelled cells that
//! [`SweepBuilder::with_pack`](sweep::SweepBuilder::with_pack) expands
//! over any base experiment (see the [`scenarios`] catalog for every
//! built-in pack and component id):
//!
//! ```
//! use dpbyz::prelude::*;
//!
//! let results = SweepBuilder::over(Experiment::builder().steps(3).dataset_size(200))
//!     .with_pack("paper-core") // the seed §5 grid: clean/ALIE/FoE × DP on/off
//!     .seeds(&[1])
//!     .run()
//!     .unwrap();
//! assert_eq!(results.cells.len(), 6);
//! assert!(results.get("paper-core/mda/alie/dp").is_some());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

// ---- the redesigned experiment API --------------------------------------
/// The parallel sweep executor: [`SweepBuilder`](sweep::SweepBuilder)
/// fans a grid of experiment cells × seeds over a work-sharing thread
/// pool and returns histories in deterministic grid order, bit-identical
/// to the serial loop. See the module docs for the grid API.
pub mod sweep {
    pub use dpbyz_core::sweep::{
        CellRun, JobInfo, ObserverFactory, SweepBuilder, SweepCell, SweepEvent, SweepResults,
    };
}
pub use dpbyz_core::pack::{
    register_scenario_pack, register_scenario_pack_with, scenario_pack, scenario_pack_ids,
    PackCell, ScenarioPack,
};
pub use dpbyz_core::pipeline::{FigureConfig, PipelineError, Workload};
pub use dpbyz_core::registry::{
    self, attack_ids, build_attack, build_gar, build_mechanism, gar_ids, mechanism_capabilities,
    mechanism_ids, register_attack, register_gar, register_mechanism, register_mechanism_with,
    MechanismCapabilities,
};
pub use dpbyz_core::{
    ComponentSpec, Experiment, ExperimentBuilder, ParamValue, Registry, RegistryError,
};

/// The registry id of the paper's ALIE attack, kept at this path only
/// because the `perfbench` package still spells it
/// `AttackKind::PAPER_ALIE`; everything else names components by id
/// (`"alie"`). The registry's ALIE default is the paper's ν = 1.5, so
/// the attack built from this id is the paper's.
pub struct AttackKind;

impl AttackKind {
    /// The paper's ALIE setting, by registry id.
    pub const PAPER_ALIE: &'static str = "alie";
}

/// The scenario catalog (`docs/SCENARIOS.md`, rendered as rustdoc): every
/// registered GAR, attack, mechanism, and scenario pack — ids,
/// parameters, semantics, paper references — with runnable snippets that
/// `cargo test --doc` executes, so the catalog cannot go stale.
#[doc = include_str!("../../../docs/SCENARIOS.md")]
pub mod scenarios {}

// ---- engines and telemetry ----------------------------------------------
pub use dpbyz_server::{
    AttackVisibility, BatchGrowth, ConfigError, FnObserver, LrSchedule, MomentumMode, RunHistory,
    RunObserver, RunScratch, SeedSummary, StepMetrics, Trainer, TrainingConfig,
    TrainingConfigBuilder,
};

// ---- privacy ------------------------------------------------------------
pub use dpbyz_dp::PrivacyBudget;

// ---- theory and analysis ------------------------------------------------
pub use dpbyz_core::{analysis, report, theory};

// ---- subsystem crates, namespaced ---------------------------------------
/// Byzantine attack implementations and the `Attack` trait.
pub use dpbyz_attacks as attacks;
/// Dataset substrate: LIBSVM parsing, synthetic generators, samplers.
pub use dpbyz_data as data;
/// Differential-privacy mechanisms, budgets, accountants, amplification.
pub use dpbyz_dp as dp;
/// Aggregation rules and the `Gar` trait.
pub use dpbyz_gars as gars;
/// Differentiable models and losses.
pub use dpbyz_models as models;
/// The multi-process distributed engine: TCP coordinator/worker
/// deployment behind the `"tcp"` backend id (call
/// [`net::install`] once to register it).
pub use dpbyz_net as net;
/// The parameter-server simulator crate.
pub use dpbyz_server as server;
/// Dense linear algebra, statistics, and seeded randomness.
pub use dpbyz_tensor as tensor;

/// One-line import for experiment scripts: the builder, component specs,
/// registry registration hooks, observers, and run artifacts.
pub mod prelude {
    pub use crate::sweep::{CellRun, SweepBuilder, SweepEvent, SweepResults};
    pub use crate::{
        register_attack, register_gar, register_mechanism, register_mechanism_with,
        register_scenario_pack, register_scenario_pack_with, scenario_pack, scenario_pack_ids,
        ComponentSpec, Experiment, ExperimentBuilder, FigureConfig, FnObserver, LrSchedule,
        MechanismCapabilities, MomentumMode, PackCell, PipelineError, PrivacyBudget, RunHistory,
        RunObserver, ScenarioPack, SeedSummary, StepMetrics, TrainingConfig, Workload,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn builder_runs_through_facade() {
        let exp = Experiment::builder()
            .steps(8)
            .dataset_size(250)
            .gar("median")
            .attack("sign-flip")
            .build()
            .unwrap();
        let h = exp.run(1).unwrap();
        assert_eq!(h.train_loss.len(), 8);
    }

    #[test]
    fn observer_streams_every_step_and_matches_history() {
        let exp = Experiment::builder()
            .steps(6)
            .dataset_size(250)
            .build()
            .unwrap();
        let streamed: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = streamed.clone();
        let h = exp
            .run_with_observer(
                3,
                Box::new(FnObserver::new(move |m: &StepMetrics<'_>| {
                    sink.lock().unwrap().push(m.train_loss);
                })),
            )
            .unwrap();
        assert_eq!(*streamed.lock().unwrap(), h.train_loss);
        // Passive observation: the observed run is bit-identical to a
        // plain one.
        assert_eq!(h, exp.run(3).unwrap());
    }

    #[test]
    fn observed_leased_run_matches_plain() {
        // Mean estimation at d = 10⁴, b = 1 is large enough that the
        // engine leases its workers to threads while a core is free of
        // other runs; the observer still sees every step and leaves the
        // history untouched.
        let exp = Experiment::builder()
            .workload(Workload::MeanEstimation {
                dim: 10_000,
                sigma: 1.0,
                data_seed: 1,
            })
            .batch_size(1)
            .steps(5)
            .eval_every(0)
            .gar("mda")
            .attack("foe")
            .epsilon(0.2)
            .build()
            .unwrap();
        let plain = exp.run(2).unwrap();
        let steps = Arc::new(Mutex::new(0u32));
        let counter = steps.clone();
        let observed = exp
            .run_with_observer(
                2,
                Box::new(FnObserver::new(move |_m: &StepMetrics<'_>| {
                    *counter.lock().unwrap() += 1;
                })),
            )
            .unwrap();
        assert_eq!(plain, observed);
        assert_eq!(*steps.lock().unwrap(), 5);
    }
}
