//! Scenario packs: named, registry-resolvable bundles of labelled sweep
//! cells.
//!
//! A [`ScenarioPack`] is to a *grid* what a [`ComponentSpec`] is to a
//! *component*: a stable string id behind which a curated set of
//! (GAR × attack × mechanism × axis-value) cells lives. Packs are
//! registered like components — the built-ins ship pre-registered, and
//! out-of-tree crates add their own with [`register_scenario_pack`] — and
//! become sweepable by naming them:
//! [`SweepBuilder::with_pack`](crate::sweep::SweepBuilder::with_pack)
//! expands every cell of the pack over the sweep's base experiment.
//!
//! Packs serialize to the workspace's JSON spec format
//! ([`ScenarioPack::to_json`] / [`ScenarioPack::from_json`]), so a study
//! can be persisted, shipped, and replayed by id or by file.
//!
//! # Built-in packs
//!
//! | id | cells |
//! |----|-------|
//! | `paper-core` | the seed §5 grid: clean / ALIE / FoE, each with and without the paper's (0.2, 10⁻⁶) budget |
//! | `attack-zoo` | every registered GAR that tolerates ≥ 1 Byzantine worker at n = 11 × every registered attack (computed at resolve time, so late-registered components join automatically) |
//! | `clipping-study` | the radius-tuned defenses (centered clipping at two radii, bucketed median) against ALIE, IPM, and the norm-rescaling probe |
//!
//! # Registering a custom pack
//!
//! ```
//! use dpbyz_core::pack::{self, PackCell, ScenarioPack};
//! use dpbyz_core::sweep::SweepBuilder;
//! use dpbyz_core::Experiment;
//!
//! pack::register_scenario_pack(
//!     ScenarioPack::new("doc-mini", "median vs sign-flip, one cell")
//!         .cell(PackCell::new("median/sign-flip").gar("median").attack("sign-flip")),
//! )
//! .unwrap();
//!
//! let results = SweepBuilder::over(Experiment::builder().steps(3).dataset_size(200))
//!     .with_pack("doc-mini")
//!     .seeds(&[1])
//!     .run()
//!     .unwrap();
//! assert_eq!(results.cells[0].label, "doc-mini/median/sign-flip");
//! ```

use crate::registry::{self, ComponentSpec, Registry, RegistryError};
use crate::Experiment;
use dpbyz_server::TrainingConfig;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock, RwLock};

/// One labelled cell of a scenario pack: the component ids and axis
/// values it pins, applied *on top of* whatever base experiment the sweep
/// provides. Unset fields leave the base untouched, so the same pack can
/// run at paper scale or smoke-test scale, with or without DP, by
/// swapping the base builder.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PackCell {
    /// Cell label; the sweep prefixes it with the pack id
    /// (`"{pack}/{label}"`).
    pub label: String,
    /// Aggregation rule to pin, if any.
    pub gar: Option<ComponentSpec>,
    /// Attack to arm, if any (`None` leaves the base — typically clean).
    pub attack: Option<ComponentSpec>,
    /// Explicitly disarms any attack the base carries. Unlike a `None`
    /// attack (which inherits the base), an `unattacked` cell is
    /// guaranteed clean — how `paper-core`'s `clean/*` cells keep their
    /// label honest even over an attack-carrying base. If a cell
    /// (nonsensically) sets both this flag and [`PackCell::attack`], the
    /// explicit pin wins.
    pub unattacked: bool,
    /// Noise mechanism to pin, if any.
    pub mechanism: Option<ComponentSpec>,
    /// Per-step privacy ε to pin, if any.
    pub epsilon: Option<f64>,
    /// Privacy δ to pin alongside [`PackCell::epsilon`], if any (cells
    /// pinning a full `(ε, δ)` budget should pin both — `paper-core`'s
    /// `/dp` cells pin the paper's (0.2, 10⁻⁶) — so a base with a
    /// different δ cannot silently change what the label promises).
    pub delta: Option<f64>,
    /// Explicitly clears any privacy budget the base carries. Unlike a
    /// `None` epsilon (which inherits the base), a `no_dp` cell is
    /// guaranteed noise-free — how `paper-core`'s `/nodp` cells keep
    /// their label honest even over a DP-carrying base. If a cell
    /// (nonsensically) sets both this flag and [`PackCell::epsilon`], the
    /// explicit pin wins.
    pub no_dp: bool,
    /// Per-worker batch size to pin, if any.
    pub batch_size: Option<u64>,
    /// Total worker count `n` to pin, if any. Cells that pin a
    /// topology-sensitive `byzantine` count should pin the topology too
    /// (the built-ins pin the paper's n = 11), so the pack expands over
    /// bases of any worker count.
    pub workers: Option<u64>,
    /// Byzantine worker count to pin, if any (armed cells default to the
    /// base builder's `f` otherwise).
    pub byzantine: Option<u64>,
}

impl PackCell {
    /// A cell that changes nothing but the label.
    pub fn new(label: impl Into<String>) -> Self {
        PackCell {
            label: label.into(),
            ..PackCell::default()
        }
    }

    /// Pins the aggregation rule (id, kind, or full spec).
    #[must_use]
    pub fn gar(mut self, gar: impl Into<ComponentSpec>) -> Self {
        self.gar = Some(gar.into());
        self
    }

    /// Arms an attack (id, kind, or full spec).
    #[must_use]
    pub fn attack(mut self, attack: impl Into<ComponentSpec>) -> Self {
        self.attack = Some(attack.into());
        self
    }

    /// Pins the cell to run clean, disarming any attack the base carries.
    #[must_use]
    fn unattacked(mut self) -> Self {
        self.unattacked = true;
        self
    }

    /// Pins the noise mechanism.
    #[must_use]
    pub fn mechanism(mut self, mechanism: impl Into<ComponentSpec>) -> Self {
        self.mechanism = Some(mechanism.into());
        self
    }

    /// Pins the per-step privacy ε.
    #[must_use]
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = Some(epsilon);
        self
    }

    /// Pins the privacy δ used with [`PackCell::epsilon`].
    #[must_use]
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Pins the cell to run noise-free, clearing any budget the base
    /// carries (see [`PackCell::no_dp`]).
    #[must_use]
    pub fn no_dp(mut self) -> Self {
        self.no_dp = true;
        self
    }

    /// Pins the per-worker batch size.
    #[must_use]
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = Some(batch_size as u64);
        self
    }

    /// Pins the total worker count `n`.
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n as u64);
        self
    }

    /// Pins the Byzantine worker count.
    #[must_use]
    pub fn byzantine(mut self, f: usize) -> Self {
        self.byzantine = Some(f as u64);
        self
    }

    /// Applies the cell's pinned values on top of a base builder — the
    /// expansion step [`SweepBuilder::with_pack`] drives for every cell.
    ///
    /// [`SweepBuilder::with_pack`]: crate::sweep::SweepBuilder::with_pack
    #[must_use]
    pub fn apply(&self, mut base: crate::ExperimentBuilder) -> crate::ExperimentBuilder {
        if let Some(gar) = &self.gar {
            base = base.gar(gar.clone());
        }
        if self.unattacked {
            base = base.unattacked();
        }
        if let Some(attack) = &self.attack {
            base = base.attack(attack.clone());
        }
        if let Some(mechanism) = &self.mechanism {
            base = base.mechanism(mechanism.clone());
        }
        if self.no_dp {
            base = base.no_dp();
        }
        if let Some(delta) = self.delta {
            base = base.delta(delta);
        }
        if let Some(epsilon) = self.epsilon {
            base = base.epsilon(epsilon);
        }
        if let Some(batch) = self.batch_size {
            base = base.batch_size(batch as usize);
        }
        if let Some(n) = self.workers {
            base = base.n_workers(n as usize);
        }
        if let Some(f) = self.byzantine {
            base = base.byzantine(f as usize);
        }
        base
    }
}

/// A named bundle of labelled sweep cells, resolvable by id through the
/// pack registry (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioPack {
    /// Registry id (`"paper-core"`, `"attack-zoo"`, …).
    pub id: String,
    /// One-line human description (surfaced by catalogs and CLIs).
    pub description: String,
    /// The labelled cells, in run order.
    pub cells: Vec<PackCell>,
}

impl ScenarioPack {
    /// An empty pack.
    pub fn new(id: impl Into<String>, description: impl Into<String>) -> Self {
        ScenarioPack {
            id: id.into(),
            description: description.into(),
            cells: Vec::new(),
        }
    }

    /// Appends a cell, builder-style.
    #[must_use]
    pub fn cell(mut self, cell: PackCell) -> Self {
        self.cells.push(cell);
        self
    }

    /// Serializes the pack to the workspace's JSON spec format.
    ///
    /// # Errors
    ///
    /// Propagates the serializer's error (practically unreachable for
    /// this shape).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Deserializes a pack from JSON (the inverse of
    /// [`ScenarioPack::to_json`]).
    ///
    /// # Errors
    ///
    /// The deserializer's error on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

// ------------------------------------------------------------------------
// The global pack registry. Packs reuse the component `Registry`
// machinery: an entry is a *factory*, so a pack may be static data (the
// common case — `register_scenario_pack` wraps it) or computed at resolve
// time (the built-in `attack-zoo` reads the component registries when
// asked, so late registrations join the cross product).

fn pack_registry() -> &'static RwLock<Registry<ScenarioPack>> {
    static REGISTRY: OnceLock<RwLock<Registry<ScenarioPack>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(built_in_packs()))
}

/// The paper's §5.1 topology `(n, f)` the built-in packs are curated
/// for, as [`TrainingConfig::default`] states it.
fn paper_topology() -> (usize, usize) {
    let config = TrainingConfig::default();
    (config.n_workers, config.n_byzantine)
}

/// The paper's per-step ε (there is no default ε: DP is opt-in).
const PAPER_EPSILON: f64 = 0.2;

fn paper_core_pack() -> ScenarioPack {
    let (n, f) = paper_topology();
    let delta = Experiment::builder().delta;
    let mut pack = ScenarioPack::new(
        "paper-core",
        "the seed §5 grid: clean/ALIE/FoE × {no DP, the paper's (0.2, 1e-6) budget}",
    )
    .cell(PackCell::new("clean/nodp").unattacked().no_dp())
    .cell(
        PackCell::new("clean/dp")
            .unattacked()
            .epsilon(PAPER_EPSILON)
            .delta(delta),
    );
    for (name, spec) in [
        ("alie", ComponentSpec::new("alie").with("nu", 1.5)),
        ("foe", ComponentSpec::new("foe").with("nu", 1.1)),
    ] {
        pack = pack
            .cell(
                PackCell::new(format!("mda/{name}/nodp"))
                    .gar("mda")
                    .attack(spec.clone())
                    .workers(n)
                    .byzantine(f)
                    .no_dp(),
            )
            .cell(
                PackCell::new(format!("mda/{name}/dp"))
                    .gar("mda")
                    .attack(spec)
                    .workers(n)
                    .byzantine(f)
                    .epsilon(PAPER_EPSILON)
                    .delta(delta),
            );
    }
    pack
}

/// Crosses every registered GAR that tolerates at least one Byzantine
/// worker at the paper's n = 11 with every registered attack, clamping
/// `f` to each rule's tolerance. Evaluated when the pack id resolves, so
/// components registered later — including out-of-tree ones — appear in
/// the next expansion. GARs whose bare spec fails to build (custom rules
/// requiring parameters) are skipped rather than failing the pack.
fn attack_zoo_pack() -> ScenarioPack {
    let mut pack = ScenarioPack::new(
        "attack-zoo",
        "every registered GAR tolerating f >= 1 at n = 11, against every registered attack",
    );
    let (n, max_f) = paper_topology();
    let attack_ids = registry::attack_ids();
    for gar_id in registry::gar_ids() {
        let Ok(gar) = registry::build_gar(&ComponentSpec::new(&gar_id)) else {
            continue;
        };
        let f = gar.max_byzantine(n).min(max_f);
        if f == 0 {
            continue;
        }
        for attack_id in &attack_ids {
            pack = pack.cell(
                PackCell::new(format!("{gar_id}/{attack_id}"))
                    .gar(ComponentSpec::new(&gar_id))
                    .attack(ComponentSpec::new(attack_id))
                    .workers(n)
                    .byzantine(f),
            );
        }
    }
    pack
}

fn clipping_study_pack() -> ScenarioPack {
    let (n, f) = paper_topology();
    // Radii on the scale of the protocol's clipped gradients
    // (G_max = 10⁻²): a tight τ at the clip threshold and a loose 10×.
    let defenses = [
        (
            "cc-tight",
            ComponentSpec::new("centered-clipping").with("tau", 0.01),
            f,
        ),
        (
            "cc-loose",
            ComponentSpec::new("centered-clipping").with("tau", 0.1),
            f,
        ),
        (
            "bucket-median",
            ComponentSpec::new("bucketing")
                .with("s", 2u64)
                .with("inner", "median"),
            2, // median at ⌈11/2⌉ = 6 buckets tolerates 2
        ),
    ];
    let attacks = [
        ("alie", ComponentSpec::new("alie").with("nu", 1.5)),
        ("ipm", ComponentSpec::new("ipm").with("epsilon", 0.5)),
        (
            "rescaling",
            // Sitting exactly at the tight clipping radius, reversed.
            ComponentSpec::new("rescaling").with("norm", -0.01),
        ),
    ];
    let mut pack = ScenarioPack::new(
        "clipping-study",
        "radius-tuned defenses (centered clipping, bucketed median) vs ALIE/IPM/rescaling",
    );
    for (gar_name, gar_spec, gar_f) in &defenses {
        for (attack_name, attack_spec) in &attacks {
            pack = pack.cell(
                PackCell::new(format!("{gar_name}/{attack_name}"))
                    .gar(gar_spec.clone())
                    .attack(attack_spec.clone())
                    .workers(n)
                    .byzantine(*gar_f),
            );
        }
    }
    pack
}

fn built_in_packs() -> Registry<ScenarioPack> {
    let mut r = Registry::new();
    r.seed("paper-core", |_| Ok(Arc::new(paper_core_pack())));
    r.seed("attack-zoo", |_| Ok(Arc::new(attack_zoo_pack())));
    r.seed("clipping-study", |_| Ok(Arc::new(clipping_study_pack())));
    r
}

/// Registers a scenario pack as static data under its own
/// [`ScenarioPack::id`] — the out-of-tree path (built-ins use factories
/// so they can read the component registries at resolve time; see
/// [`register_scenario_pack_with`]).
///
/// # Errors
///
/// [`RegistryError::DuplicateId`] if the id is taken.
///
/// # Panics
///
/// Panics if the registry lock is poisoned.
pub fn register_scenario_pack(pack: ScenarioPack) -> Result<(), RegistryError> {
    let id = pack.id.clone();
    let shared = Arc::new(pack);
    register_scenario_pack_with(id, move |_| Ok(shared.clone()))
}

/// Registers a scenario pack *factory* under an id: the pack is computed
/// every time the id resolves, so it can reflect the current component
/// registries (how the built-in `attack-zoo` stays open to late
/// registrations). The factory should produce a pack whose
/// [`ScenarioPack::id`] matches the registered id; sweep labels always
/// use the id the caller swept, so a mismatch cannot break result
/// lookups — only catalogs that print [`ScenarioPack::id`].
///
/// # Errors
///
/// [`RegistryError::DuplicateId`] if the id is taken.
///
/// # Panics
///
/// Panics if the registry lock is poisoned.
pub fn register_scenario_pack_with(
    id: impl Into<String>,
    factory: impl Fn(&ComponentSpec) -> Result<Arc<ScenarioPack>, RegistryError> + Send + Sync + 'static,
) -> Result<(), RegistryError> {
    crate::registry::write_guard(pack_registry()).register(id, factory)
}

/// Resolves a pack id through the global registry.
///
/// # Errors
///
/// [`RegistryError::UnknownId`] (listing every registered pack) or the
/// factory's own error.
///
/// # Panics
///
/// Panics if the registry lock is poisoned.
pub fn scenario_pack(id: &str) -> Result<Arc<ScenarioPack>, RegistryError> {
    // Fetch under the lock, invoke outside it: pack factories read the
    // component registries (attack-zoo) or other packs.
    let factory = crate::registry::read_guard(pack_registry()).factory(id)?;
    factory(&ComponentSpec::new(id))
}

/// All registered pack ids.
///
/// # Panics
///
/// Panics if the registry lock is poisoned.
pub fn scenario_pack_ids() -> Vec<String> {
    crate::registry::read_guard(pack_registry()).ids()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_in_packs_resolve() {
        for id in ["paper-core", "attack-zoo", "clipping-study"] {
            let pack = scenario_pack(id).unwrap();
            assert_eq!(pack.id, id);
            assert!(!pack.cells.is_empty(), "{id} is empty");
        }
        assert!(scenario_pack_ids().len() >= 3);
    }

    #[test]
    fn paper_core_reproduces_the_seed_grid() {
        let pack = scenario_pack("paper-core").unwrap();
        let labels: Vec<&str> = pack.cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "clean/nodp",
                "clean/dp",
                "mda/alie/nodp",
                "mda/alie/dp",
                "mda/foe/nodp",
                "mda/foe/dp"
            ]
        );
        // The attacked cells pin the paper's ν parameters.
        let attack = |cell: usize| pack.cells[cell].attack.clone().unwrap();
        assert_eq!(attack(2).f64_if_present("nu"), Ok(Some(1.5)));
        assert_eq!(attack(4).f64_if_present("nu"), Ok(Some(1.1)));
        assert_eq!(pack.cells[1].epsilon, Some(0.2));
        assert_eq!(pack.cells[0].epsilon, None);
    }

    #[test]
    fn attack_zoo_crosses_registered_components_with_clamped_f() {
        let pack = scenario_pack("attack-zoo").unwrap();
        let n_attacks = registry::attack_ids().len();
        // Every cell names both components and a positive tolerated f.
        assert_eq!(pack.cells.len() % n_attacks, 0);
        for cell in &pack.cells {
            let gar = registry::build_gar(cell.gar.as_ref().unwrap()).unwrap();
            let f = cell.byzantine.unwrap() as usize;
            assert!(f >= 1 && f <= gar.max_byzantine(11), "{}", cell.label);
            assert!(cell.attack.is_some());
        }
        // Averaging (f = 0) is excluded; the new defenses are included.
        assert!(!pack.cells.iter().any(|c| c.label.starts_with("average/")));
        assert!(pack
            .cells
            .iter()
            .any(|c| c.label == "centered-clipping/ipm"));
        assert!(pack.cells.iter().any(|c| c.label == "bucketing/rescaling"));
    }

    #[test]
    fn attack_zoo_is_open_to_late_registrations() {
        // A GAR registered *after* the pack exists appears on the next
        // resolve — the factory reads the component registries live.
        let before = scenario_pack("attack-zoo").unwrap().cells.len();
        registry::register_gar("zoo-probe-median", |_| {
            Ok(Arc::new(dpbyz_gars::CoordinateMedian::new()) as Arc<dyn dpbyz_gars::Gar>)
        })
        .unwrap();
        let after = scenario_pack("attack-zoo").unwrap();
        assert_eq!(
            after.cells.len(),
            before + registry::attack_ids().len(),
            "late-registered GAR missing from the zoo"
        );
        assert!(after
            .cells
            .iter()
            .any(|c| c.label.starts_with("zoo-probe-median/")));
    }

    #[test]
    fn packs_round_trip_through_json() {
        let pack = scenario_pack("clipping-study").unwrap();
        let json = pack.to_json().unwrap();
        let back = ScenarioPack::from_json(&json).unwrap();
        assert_eq!(back, *pack);
        // The string param of the bucketing cell survives the trip.
        let bucket_cell = back
            .cells
            .iter()
            .find(|c| c.label.starts_with("bucket-median/"))
            .unwrap();
        assert_eq!(
            bucket_cell.gar.as_ref().unwrap().str_or_reject("inner", ""),
            Ok("median")
        );
    }

    #[test]
    fn duplicate_pack_id_rejected_and_unknown_id_lists_available() {
        let err = register_scenario_pack(ScenarioPack::new("paper-core", "shadow"))
            .expect_err("built-in ids are taken");
        assert_eq!(err, RegistryError::DuplicateId("paper-core".into()));
        let err = scenario_pack("no-such-pack").expect_err("unknown id");
        let message = err.to_string();
        assert!(
            message.contains("no-such-pack") && message.contains("attack-zoo"),
            "{message}"
        );
    }

    #[test]
    fn built_in_packs_expand_over_a_smaller_topology_base() {
        // The base runs 7 workers; the packs' Byzantine pins were curated
        // for n = 11, so the cells pin the topology too — the pack must
        // expand (and run) over *any* base, as the module docs promise.
        let base = crate::Experiment::builder()
            .steps(2)
            .dataset_size(200)
            .workers(7, 0);
        for id in ["paper-core", "attack-zoo", "clipping-study"] {
            let pack = scenario_pack(id).unwrap();
            for cell in &pack.cells {
                let exp = cell
                    .apply(base.clone())
                    .build()
                    .unwrap_or_else(|e| panic!("{id}/{}: {e}", cell.label));
                if cell.byzantine.is_some() {
                    assert_eq!(exp.config.n_workers, 11, "{id}/{}", cell.label);
                }
            }
        }
    }

    #[test]
    fn nodp_cells_stay_noise_free_over_a_dp_base() {
        // A DP-carrying base must not leak its budget into cells labelled
        // no-DP (/nodp cells clear it, /dp cells pin their own ε) — for
        // both ways a base can carry DP: a bare ε and a full budget (the
        // builder prefers the latter, so a pinned cell ε must displace
        // it).
        let bases = [
            crate::Experiment::builder()
                .steps(2)
                .dataset_size(200)
                .epsilon(0.8),
            crate::Experiment::builder()
                .steps(2)
                .dataset_size(200)
                .budget(dpbyz_dp::PrivacyBudget::new(0.8, 1e-5).unwrap()),
        ];
        let pack = scenario_pack("paper-core").unwrap();
        for base in bases {
            for cell in &pack.cells {
                let exp = cell.apply(base.clone()).build().unwrap();
                if cell.label.ends_with("/nodp") {
                    assert!(exp.budget.is_none(), "{} inherited the budget", cell.label);
                } else {
                    assert_eq!(
                        exp.budget.expect("dp cell has a budget").epsilon(),
                        0.2,
                        "{}",
                        cell.label
                    );
                }
            }
        }
    }

    #[test]
    fn clean_cells_stay_clean_over_an_attacked_base() {
        // An attack-carrying base must not poison the clean reference
        // cells: `clean/*` pins cleanliness, attacked cells pin their own
        // attack.
        let base = crate::Experiment::builder()
            .steps(2)
            .dataset_size(200)
            .attack("sign-flip");
        let pack = scenario_pack("paper-core").unwrap();
        for cell in &pack.cells {
            let exp = cell.apply(base.clone()).build().unwrap();
            if cell.label.starts_with("clean/") {
                assert!(exp.attack.is_none(), "{} inherited the attack", cell.label);
                assert_eq!(exp.config.n_byzantine, 0, "{}", cell.label);
            } else {
                assert_ne!(
                    exp.attack.as_ref().expect("attacked cell").id,
                    "sign-flip",
                    "{} kept the base attack",
                    cell.label
                );
            }
        }
    }

    #[test]
    fn dp_cells_pin_the_paper_delta_over_a_different_base_delta() {
        // "the paper's (0.2, 1e-6) budget" must mean exactly that, even
        // over a base whose δ is 1000x looser.
        let base = crate::Experiment::builder()
            .steps(2)
            .dataset_size(200)
            .delta(1e-3);
        let pack = scenario_pack("paper-core").unwrap();
        for cell in &pack.cells {
            let exp = cell.apply(base.clone()).build().unwrap();
            if let Some(budget) = exp.budget {
                assert_eq!(budget.epsilon(), 0.2, "{}", cell.label);
                assert_eq!(budget.delta(), 1e-6, "{}", cell.label);
            }
        }
    }

    #[test]
    fn pack_pins_write_through_an_explicit_base_config() {
        // A base assembled from a full TrainingConfig (f = 5 among 7
        // workers) must still honour the cells' topology pins: the zoo's
        // per-rule f-clamping cannot be silently discarded.
        let config = TrainingConfig {
            n_workers: 7,
            n_byzantine: 5,
            batch_size: 8,
            steps: 2,
            ..TrainingConfig::default()
        }
        .validate()
        .unwrap();
        let base = crate::Experiment::builder()
            .dataset_size(200)
            .config(config);
        let pack = scenario_pack("attack-zoo").unwrap();
        let krum = pack
            .cells
            .iter()
            .find(|c| c.label == "krum/alie")
            .expect("zoo has krum/alie");
        let exp = krum.apply(base).build().expect("pins override the config");
        assert_eq!(exp.config.n_workers, 11);
        assert_eq!(exp.config.n_byzantine, 4); // krum's clamp, not the base's 5
        assert_eq!(exp.config.batch_size, 8); // unpinned knob inherited
    }

    #[test]
    fn pack_cells_apply_over_a_base_builder() {
        let cell = PackCell::new("probe")
            .gar("median")
            .attack(ComponentSpec::new("sign-flip"))
            .byzantine(3)
            .batch_size(17)
            .epsilon(0.4);
        let exp = cell
            .apply(crate::Experiment::builder().steps(5).dataset_size(200))
            .build()
            .unwrap();
        assert_eq!(exp.gar, ComponentSpec::new("median"));
        assert_eq!(exp.config.n_byzantine, 3);
        assert_eq!(exp.config.batch_size, 17);
        assert_eq!(exp.budget.unwrap().epsilon(), 0.4);
    }
}
