//! `dpbyz-core` — the paper's contribution, as a library.
//!
//! *Differential Privacy and Byzantine Resilience in SGD: Do They Add Up?*
//! (Guerraoui, Gupta, Pinot, Rouault, Stephan — PODC 2021) shows that
//! worker-local DP noise injection and `(α, f)`-Byzantine-resilient
//! aggregation are *antagonistic*: the only known resilience certificate
//! (the VN-ratio condition) inherits a `d·s²` noise term that forces either
//! `b ∈ Ω(√d)` batches or a vanishing Byzantine fraction, and — for
//! strongly convex costs — the training error degrades from `O(1/T)` to
//! `Θ(d·log(1/δ)/(T·b²·ε²))`.
//!
//! This crate packages both halves of the paper:
//!
//! * [`theory`] — closed-form calculators: the noisy VN condition (Eq. 8),
//!   the per-GAR necessary conditions of Table 1 (Propositions 1–3), and
//!   Theorem 1's upper/lower error bounds;
//! * [`pipeline`] — the experimental apparatus: a declarative
//!   [`pipeline::Experiment`] that assembles dataset, model, mechanism,
//!   GAR, attack, and topology into seeded, reproducible runs, described
//!   by one [`ExperimentBuilder`] (the grid of Figs. 2–4 is the
//!   `paper-core` [`pack`] swept over a builder base);
//! * [`analysis`] — feasibility frontiers (minimum batch size, maximum
//!   Byzantine fraction) and the ResNet-50 worked example;
//! * [`pack`] — scenario packs: named, registry-resolvable bundles of
//!   labelled sweep cells ([`sweep::SweepBuilder::with_pack`]);
//! * [`report`] — CSV / Markdown emitters used by the bench harness.
//!
//! # Quickstart
//!
//! ```
//! use dpbyz_core::Experiment;
//!
//! // Fig. 2's "DP + ALIE attack" cell, shrunk for a doctest.
//! let exp = Experiment::builder()
//!     .batch_size(50)
//!     .steps(30)
//!     .dataset_size(300)
//!     .attack("alie") // the registry default is the paper's ν = 1.5
//!     .epsilon(0.2)
//!     .build()
//!     .unwrap();
//! let history = exp.run(1).unwrap();
//! assert_eq!(history.train_loss.len(), 30);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
mod builder;
pub mod pack;
pub mod pipeline;
pub mod registry;
pub mod report;
pub mod sweep;
pub mod theory;

pub use builder::ExperimentBuilder;
pub use pack::{PackCell, ScenarioPack};
pub use pipeline::Experiment;
pub use registry::{ComponentSpec, ParamValue, Registry, RegistryError};
pub use sweep::{CellRun, SweepBuilder, SweepResults};

/// One-line import for experiment scripts.
///
/// ```
/// use dpbyz_core::prelude::*;
///
/// let exp = Experiment::builder()
///     .steps(3)
///     .dataset_size(200)
///     .build()
///     .unwrap();
/// assert_eq!(exp.gar, ComponentSpec::new("average"));
/// ```
pub mod prelude {
    pub use crate::pack::{
        register_scenario_pack, register_scenario_pack_with, scenario_pack, scenario_pack_ids,
        PackCell, ScenarioPack,
    };
    pub use crate::pipeline::{Experiment, PipelineError, Workload};
    pub use crate::registry::{
        register_attack, register_gar, register_mechanism, register_mechanism_with, ComponentSpec,
        MechanismCapabilities,
    };
    pub use crate::sweep::{CellRun, SweepBuilder, SweepResults};
    pub use crate::ExperimentBuilder;
    pub use dpbyz_dp::PrivacyBudget;
    pub use dpbyz_server::{
        FnObserver, RunHistory, RunObserver, SeedSummary, StepMetrics, TrainingConfig,
    };
}
