//! The extensible component registry: GARs, attacks, and noise mechanisms
//! resolved by stable string ids.
//!
//! The experiment vocabulary used to be three *closed* enums — adding a
//! scenario meant editing this crate. The registry inverts that: each
//! component family ([`Gar`], [`Attack`], [`Mechanism`]) has a global
//! [`Registry`] keyed by id and pre-populated with every built-in, and
//! downstream code (or third-party crates) can [`register_gar`] /
//! [`register_attack`] / [`register_mechanism`] new implementations
//! without touching core. Experiment specs name components by
//! [`ComponentSpec`] — an id plus a flat parameter map — which is what
//! makes them serializable, sweepable, and CLI-addressable.
//!
//! # Registering a custom component
//!
//! ```
//! use dpbyz_core::registry::{self, ComponentSpec};
//! use dpbyz_gars::{Gar, GarError, GarScratch};
//! use dpbyz_tensor::Vector;
//! use std::sync::Arc;
//!
//! struct FirstVector;
//!
//! impl Gar for FirstVector {
//!     fn name(&self) -> &'static str { "first-vector" }
//!     fn aggregate_into(
//!         &self,
//!         gradients: &[Vector],
//!         _f: usize,
//!         _scratch: &mut GarScratch,
//!         out: &mut Vector,
//!     ) -> Result<(), GarError> {
//!         out.copy_from(gradients.first().ok_or(GarError::Empty)?);
//!         Ok(())
//!     }
//!     fn kappa(&self, _n: usize, _f: usize) -> Option<f64> { None }
//!     fn max_byzantine(&self, _n: usize) -> usize { 0 }
//! }
//!
//! registry::register_gar("first-vector", |_spec| Ok(Arc::new(FirstVector))).unwrap();
//! let gar = registry::build_gar(&ComponentSpec::new("first-vector")).unwrap();
//! assert_eq!(gar.name(), "first-vector");
//! ```

use dpbyz_attacks::{
    Attack, FallOfEmpires, InnerProductManipulation, LargeNorm, LittleIsEnough, Mimic, RandomNoise,
    Rescaling, SignFlip, Zero,
};
use dpbyz_dp::{GaussianMechanism, LaplaceMechanism, Mechanism, NoNoise, PrivacyBudget};
use dpbyz_gars::{
    Average, Bucketing, Bulyan, CenteredClipping, CoordinateMedian, Gar, GeometricMedian, Krum,
    Mda, Meamed, MultiKrum, Phocas, StalenessDamped, TrimmedMean,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

/// A scalar component parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamValue {
    /// A floating-point parameter (e.g. ALIE's ν).
    F64(f64),
    /// An unsigned integer parameter (e.g. Mimic's target index).
    U64(u64),
    /// A string parameter (e.g. the inner rule id of the `bucketing`
    /// meta-GAR) — lets one registered component reference another by id.
    Str(String),
}

impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::F64(v)
    }
}

impl From<u64> for ParamValue {
    fn from(v: u64) -> Self {
        ParamValue::U64(v)
    }
}

impl From<usize> for ParamValue {
    fn from(v: usize) -> Self {
        ParamValue::U64(v as u64)
    }
}

impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Str(v.to_string())
    }
}

impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Str(v)
    }
}

/// A serializable component reference: a stable string id plus parameters.
///
/// The one way to name a component: any registered component —
/// built-in or third-party — can be named in an experiment spec. A bare
/// id takes the factory's defaults (the paper's settings for the
/// built-ins, e.g. `alie` ν = 1.5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentSpec {
    /// Registry id, e.g. `"krum"` or `"alie"`.
    pub id: String,
    /// Scalar parameters consumed by the component's factory.
    pub params: BTreeMap<String, ParamValue>,
}

impl ComponentSpec {
    /// A spec with no parameters.
    pub fn new(id: impl Into<String>) -> Self {
        ComponentSpec {
            id: id.into(),
            params: BTreeMap::new(),
        }
    }

    /// Adds (or overrides) a parameter, builder-style.
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: impl Into<ParamValue>) -> Self {
        self.params.insert(key.into(), value.into());
        self
    }

    /// Inserts a parameter only if absent (used by the pipeline to inject
    /// calibration context without clobbering explicit settings).
    pub fn default_param(&mut self, key: &str, value: impl Into<ParamValue>) {
        self.params.entry(key.to_string()).or_insert(value.into());
    }

    /// Reads a parameter as `f64` (integers widen; strings don't).
    pub fn f64(&self, key: &str) -> Option<f64> {
        match self.params.get(key) {
            Some(ParamValue::F64(v)) => Some(*v),
            Some(ParamValue::U64(v)) => Some(*v as f64),
            _ => None,
        }
    }

    /// Reads a parameter as `f64` with a default.
    pub fn f64_or(&self, key: &str, default: f64) -> f64 {
        self.f64(key).unwrap_or(default)
    }

    /// Reads a parameter as `u64` (floats must be integral).
    pub fn u64(&self, key: &str) -> Option<u64> {
        match self.params.get(key) {
            Some(ParamValue::U64(v)) => Some(*v),
            Some(ParamValue::F64(v)) if v.fract() == 0.0 && *v >= 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Reads a parameter as `u64` with a default.
    pub fn u64_or(&self, key: &str, default: u64) -> u64 {
        self.u64(key).unwrap_or(default)
    }

    /// Reads a string parameter.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.params.get(key) {
            Some(ParamValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Reads a string parameter with a default.
    pub fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.str(key).unwrap_or(default)
    }

    fn wrong_type(&self, key: &str, expected: &str) -> RegistryError {
        RegistryError::Build {
            id: self.id.clone(),
            message: format!(
                "parameter `{key}` must be {expected}, got {:?}",
                self.params.get(key)
            ),
        }
    }

    /// Like [`ComponentSpec::f64_or`], but a *present* value of the wrong
    /// type (e.g. a string under a numeric key) is a
    /// [`RegistryError::Build`] instead of a silent fall-back to the
    /// default — the contract built-in factories use, so a mistyped
    /// parameter fails the build rather than quietly running with an
    /// untuned component.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Build`] when the key is present but not numeric.
    pub fn f64_or_reject(&self, key: &str, default: f64) -> Result<f64, RegistryError> {
        match self.params.get(key) {
            None => Ok(default),
            Some(_) => self
                .f64(key)
                .ok_or_else(|| self.wrong_type(key, "a number")),
        }
    }

    /// [`ComponentSpec::u64_or`] with the same present-but-wrong-type
    /// rejection as [`ComponentSpec::f64_or_reject`].
    ///
    /// # Errors
    ///
    /// [`RegistryError::Build`] when the key is present but not an
    /// unsigned integer.
    pub fn u64_or_reject(&self, key: &str, default: u64) -> Result<u64, RegistryError> {
        match self.params.get(key) {
            None => Ok(default),
            Some(_) => self
                .u64(key)
                .ok_or_else(|| self.wrong_type(key, "an unsigned integer")),
        }
    }

    /// [`ComponentSpec::str_or`] with the same present-but-wrong-type
    /// rejection as [`ComponentSpec::f64_or_reject`].
    ///
    /// # Errors
    ///
    /// [`RegistryError::Build`] when the key is present but not a string.
    pub fn str_or_reject<'a>(
        &'a self,
        key: &str,
        default: &'a str,
    ) -> Result<&'a str, RegistryError> {
        match self.params.get(key) {
            None => Ok(default),
            Some(ParamValue::Str(s)) => Ok(s),
            Some(_) => Err(self.wrong_type(key, "a string id")),
        }
    }
}

impl From<&str> for ComponentSpec {
    fn from(id: &str) -> Self {
        ComponentSpec::new(id)
    }
}

impl From<String> for ComponentSpec {
    fn from(id: String) -> Self {
        ComponentSpec::new(id)
    }
}

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// An id was registered twice (ids are stable API; shadowing a
    /// built-in silently would change every spec naming it).
    DuplicateId(String),
    /// No component is registered under the requested id.
    UnknownId {
        /// The id that failed to resolve.
        id: String,
        /// Every id currently registered in the family, sorted.
        available: Vec<String>,
    },
    /// The factory rejected the spec (bad or missing parameters).
    Build {
        /// The id whose factory failed.
        id: String,
        /// Human-readable cause.
        message: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateId(id) => {
                write!(f, "component id `{id}` is already registered")
            }
            RegistryError::UnknownId { id, available } => write!(
                f,
                "unknown component id `{id}`; available: [{}]",
                available.join(", ")
            ),
            RegistryError::Build { id, message } => {
                write!(f, "building component `{id}` failed: {message}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// A factory producing a component from its spec.
pub type Factory<T> = Arc<dyn Fn(&ComponentSpec) -> Result<Arc<T>, RegistryError> + Send + Sync>;

/// An id-keyed registry for one component family (`dyn Gar`, `dyn Attack`,
/// or `dyn Mechanism` — any `?Sized` target works).
pub struct Registry<T: ?Sized> {
    entries: BTreeMap<String, Factory<T>>,
}

impl<T: ?Sized> Default for Registry<T> {
    fn default() -> Self {
        Registry {
            entries: BTreeMap::new(),
        }
    }
}

impl<T: ?Sized> Registry<T> {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a factory under a new id.
    ///
    /// # Errors
    ///
    /// [`RegistryError::DuplicateId`] if the id is taken.
    pub fn register(
        &mut self,
        id: impl Into<String>,
        factory: impl Fn(&ComponentSpec) -> Result<Arc<T>, RegistryError> + Send + Sync + 'static,
    ) -> Result<(), RegistryError> {
        let id = id.into();
        if self.entries.contains_key(&id) {
            return Err(RegistryError::DuplicateId(id));
        }
        self.entries.insert(id, Arc::new(factory));
        Ok(())
    }

    /// Resolves a spec to a component instance.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownId`] (listing every available id) or the
    /// factory's own [`RegistryError::Build`].
    pub fn create(&self, spec: &ComponentSpec) -> Result<Arc<T>, RegistryError> {
        self.factory(&spec.id)?(spec)
    }

    /// The factory registered under `id` (a cheap `Arc` clone). The global
    /// `build_*` helpers fetch the factory under the registry lock but
    /// *invoke* it after releasing, so a factory may itself resolve other
    /// components (the `bucketing` meta-GAR builds its inner rule this
    /// way) without re-entering the lock.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownId`] listing every available id.
    pub fn factory(&self, id: &str) -> Result<Factory<T>, RegistryError> {
        self.entries
            .get(id)
            .cloned()
            .ok_or_else(|| RegistryError::UnknownId {
                id: id.to_string(),
                available: self.ids(),
            })
    }

    /// Whether an id is registered.
    pub fn contains(&self, id: &str) -> bool {
        self.entries.contains_key(id)
    }

    /// All registered ids, sorted.
    pub fn ids(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Number of registered components.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// [`Registry::register`] for seeding built-ins into a registry under
    /// construction. The built-in id set is a compile-time constant, so a
    /// duplicate id is a programmer error, not a runtime condition — every
    /// seeding site funnels through here so the policy (and its waiver)
    /// lives in exactly one place.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered.
    pub fn seed(
        &mut self,
        id: impl Into<String>,
        factory: impl Fn(&ComponentSpec) -> Result<Arc<T>, RegistryError> + Send + Sync + 'static,
    ) {
        // lint:allow(panic-unwrap, reason = "seeding a fresh registry with compile-time-constant built-in ids; a duplicate is a programmer error every registry test catches immediately")
        self.register(id, factory).expect("fresh registry");
    }
}

/// Acquires the read side of a component-registry lock. Poisoning is
/// fatal by design: these locks only guard id-map mutation, so a poisoned
/// lock means another thread already panicked mid-registration, and every
/// public caller documents the propagation under `# Panics`.
pub(crate) fn read_guard<T: ?Sized>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    // lint:allow(panic-unwrap, reason = "lock poisoning means another thread already panicked; propagating is the documented registry policy")
    lock.read().expect("registry lock")
}

/// The write-side counterpart of [`read_guard`], same poisoning policy.
pub(crate) fn write_guard<T: ?Sized>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    // lint:allow(panic-unwrap, reason = "lock poisoning means another thread already panicked; propagating is the documented registry policy")
    lock.write().expect("registry lock")
}

// ------------------------------------------------------------------------
// Global per-family registries, pre-populated with the built-ins.

fn gar_registry() -> &'static RwLock<Registry<dyn Gar>> {
    static REGISTRY: OnceLock<RwLock<Registry<dyn Gar>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(built_in_gars()))
}

fn attack_registry() -> &'static RwLock<Registry<dyn Attack>> {
    static REGISTRY: OnceLock<RwLock<Registry<dyn Attack>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(built_in_attacks()))
}

fn mechanism_registry() -> &'static RwLock<Registry<dyn Mechanism>> {
    static REGISTRY: OnceLock<RwLock<Registry<dyn Mechanism>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(built_in_mechanisms()))
}

/// Factory-declared capabilities of a registered noise mechanism.
///
/// Capabilities describe how the pipeline should treat a mechanism id —
/// today a single flag, declared at registration time so the behaviour is
/// a property of the *factory*, not of hard-coded built-in id strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MechanismCapabilities {
    /// The mechanism calibrates its noise from a privacy budget. When an
    /// experiment has **no** budget, the pipeline degrades such a
    /// mechanism to the identity (`"none"`) — the paper's no-DP baselines
    /// — instead of asking the factory to calibrate against nothing.
    /// Mechanisms without this capability are always resolved as
    /// specified.
    pub requires_budget: bool,
}

impl MechanismCapabilities {
    /// Capabilities of a budget-calibrated mechanism (degrades to the
    /// identity in no-DP sweeps, like the built-in `gaussian`/`laplace`).
    pub fn budget_calibrated() -> Self {
        MechanismCapabilities {
            requires_budget: true,
        }
    }
}

fn mechanism_caps() -> &'static RwLock<BTreeMap<String, MechanismCapabilities>> {
    static CAPS: OnceLock<RwLock<BTreeMap<String, MechanismCapabilities>>> = OnceLock::new();
    CAPS.get_or_init(|| {
        let mut caps = BTreeMap::new();
        caps.insert(
            "gaussian".to_string(),
            MechanismCapabilities::budget_calibrated(),
        );
        caps.insert(
            "laplace".to_string(),
            MechanismCapabilities::budget_calibrated(),
        );
        caps.insert("none".to_string(), MechanismCapabilities::default());
        RwLock::new(caps)
    })
}

fn built_in_gars() -> Registry<dyn Gar> {
    let mut r = Registry::new();
    r.seed("average", |_| Ok(Arc::new(Average::new()) as Arc<dyn Gar>));
    r.seed("krum", |_| Ok(Arc::new(Krum::new()) as Arc<dyn Gar>));
    r.seed("multi-krum", |_| {
        Ok(Arc::new(MultiKrum::new()) as Arc<dyn Gar>)
    });
    r.seed("mda", |_| Ok(Arc::new(Mda::new()) as Arc<dyn Gar>));
    r.seed("median", |_| {
        Ok(Arc::new(CoordinateMedian::new()) as Arc<dyn Gar>)
    });
    r.seed("trimmed-mean", |_| {
        Ok(Arc::new(TrimmedMean::new()) as Arc<dyn Gar>)
    });
    r.seed("meamed", |_| Ok(Arc::new(Meamed::new()) as Arc<dyn Gar>));
    r.seed("phocas", |_| Ok(Arc::new(Phocas::new()) as Arc<dyn Gar>));
    r.seed("bulyan", |_| Ok(Arc::new(Bulyan::new()) as Arc<dyn Gar>));
    r.seed("geometric-median", |_| {
        Ok(Arc::new(GeometricMedian::new()) as Arc<dyn Gar>)
    });
    r.seed("centered-clipping", |spec| {
        let tau = spec.f64_or_reject("tau", 1.0)?;
        // NaN must take the Build-error path too, not the constructor's
        // assert.
        if tau.is_nan() || tau <= 0.0 {
            return Err(RegistryError::Build {
                id: "centered-clipping".into(),
                message: format!("`tau` must be strictly positive, got {tau}"),
            });
        }
        let iters = spec.u64_or_reject("iters", 3)? as usize;
        Ok(Arc::new(CenteredClipping::new(tau, iters)) as Arc<dyn Gar>)
    });
    r.seed("bucketing", |spec| {
        let s = spec.u64_or_reject("s", 2)?;
        if s == 0 {
            return Err(RegistryError::Build {
                id: "bucketing".into(),
                message: "bucket size `s` must be at least 1".into(),
            });
        }
        let inner = build_inner_gar(spec, "bucketing", "s")?;
        Ok(Arc::new(Bucketing::new(inner, s as usize)) as Arc<dyn Gar>)
    });
    r.seed("staleness-damped", |spec| {
        let lambda = spec.f64_or_reject("lambda", 0.5)?;
        // NaN must take the Build-error path too, not the constructor's
        // assert.
        if lambda.is_nan() || lambda <= 0.0 || lambda > 1.0 {
            return Err(RegistryError::Build {
                id: "staleness-damped".into(),
                message: format!("`lambda` must be in (0, 1], got {lambda}"),
            });
        }
        let inner = build_inner_gar(spec, "staleness-damped", "lambda")?;
        Ok(Arc::new(StalenessDamped::new(inner, lambda)) as Arc<dyn Gar>)
    });
    r
}

/// Resolves the inner rule of the meta-GAR `wrapper` through the registry,
/// so any registered GAR — built-in or third-party — can sit under it by
/// id (`inner`, default `median`). Every parameter except the wrapper's
/// own (`own` and `inner`) is forwarded to the inner factory, so e.g.
/// `bucketing{inner: "centered-clipping", tau: 0.01}` tunes the inner
/// radius instead of silently dropping it.
fn build_inner_gar(
    spec: &ComponentSpec,
    wrapper: &str,
    own: &str,
) -> Result<Arc<dyn Gar>, RegistryError> {
    let mut inner_spec = ComponentSpec::new(spec.str_or_reject("inner", "median")?);
    for (key, value) in &spec.params {
        if key != own && key != "inner" {
            inner_spec.params.insert(key.clone(), value.clone());
        }
    }
    build_gar(&inner_spec).map_err(|e| RegistryError::Build {
        id: wrapper.into(),
        message: format!("inner rule failed to resolve: {e}"),
    })
}

fn built_in_attacks() -> Registry<dyn Attack> {
    let mut r = Registry::new();
    r.seed("alie", |spec| {
        Ok(Arc::new(LittleIsEnough::new(spec.f64_or_reject("nu", 1.5)?)) as Arc<dyn Attack>)
    });
    r.seed("foe", |spec| {
        Ok(Arc::new(FallOfEmpires::new(spec.f64_or_reject("nu", 1.1)?)) as Arc<dyn Attack>)
    });
    r.seed("sign-flip", |_| Ok(Arc::new(SignFlip) as Arc<dyn Attack>));
    r.seed("random-noise", |spec| {
        let std = spec.f64_or_reject("std", 1.0)?;
        if std < 0.0 {
            return Err(RegistryError::Build {
                id: "random-noise".into(),
                message: format!("std must be non-negative, got {std}"),
            });
        }
        Ok(Arc::new(RandomNoise::new(std)) as Arc<dyn Attack>)
    });
    r.seed("zero", |_| Ok(Arc::new(Zero) as Arc<dyn Attack>));
    r.seed("large-norm", |spec| {
        Ok(Arc::new(LargeNorm::new(spec.f64_or_reject("scale", 1e6)?)) as Arc<dyn Attack>)
    });
    r.seed("mimic", |spec| {
        Ok(Arc::new(Mimic::new(spec.u64_or_reject("target", 0)? as usize)) as Arc<dyn Attack>)
    });
    r.seed("ipm", |spec| {
        Ok(Arc::new(InnerProductManipulation::new(
            spec.f64_or_reject("epsilon", 0.1)?,
        )) as Arc<dyn Attack>)
    });
    r.seed("rescaling", |spec| {
        Ok(Arc::new(Rescaling::new(spec.f64_or_reject("norm", -1.0)?)) as Arc<dyn Attack>)
    });
    r
}

/// Mechanism factories read their calibration context from spec params —
/// the pipeline injects `epsilon`, `delta`, `g_max`, `batch_size`, and
/// `dim` (without clobbering explicitly set values) before resolving.
fn built_in_mechanisms() -> Registry<dyn Mechanism> {
    fn build_err(id: &str, e: impl fmt::Display) -> RegistryError {
        RegistryError::Build {
            id: id.into(),
            message: e.to_string(),
        }
    }
    fn required(spec: &ComponentSpec, id: &str, key: &str) -> Result<f64, RegistryError> {
        spec.f64(key).ok_or_else(|| {
            build_err(
                id,
                format!("missing required parameter `{key}` (injected by the pipeline)"),
            )
        })
    }

    let mut r = Registry::new();
    r.seed("none", |_| Ok(Arc::new(NoNoise) as Arc<dyn Mechanism>));
    r.seed("gaussian", |spec| {
        let id = "gaussian";
        let budget =
            PrivacyBudget::new(required(spec, id, "epsilon")?, required(spec, id, "delta")?)
                .map_err(|e| build_err(id, e))?;
        let g_max = required(spec, id, "g_max")?;
        let batch = spec
            .u64("batch_size")
            .ok_or_else(|| build_err(id, "missing required parameter `batch_size`"))?;
        let mech = GaussianMechanism::for_clipped_gradients(budget, g_max, batch as usize)
            .map_err(|e| build_err(id, e))?;
        Ok(Arc::new(mech) as Arc<dyn Mechanism>)
    });
    r.seed("laplace", |spec| {
        let id = "laplace";
        let epsilon = required(spec, id, "epsilon")?;
        let g_max = required(spec, id, "g_max")?;
        let batch = spec
            .u64("batch_size")
            .ok_or_else(|| build_err(id, "missing required parameter `batch_size`"))?;
        let dim = spec
            .u64("dim")
            .ok_or_else(|| build_err(id, "missing required parameter `dim`"))?;
        let mech =
            LaplaceMechanism::for_clipped_gradients(epsilon, g_max, batch as usize, dim as usize)
                .map_err(|e| build_err(id, e))?;
        Ok(Arc::new(mech) as Arc<dyn Mechanism>)
    });
    r
}

/// Registers an aggregation rule under a new id.
///
/// # Errors
///
/// [`RegistryError::DuplicateId`] if the id is taken.
///
/// # Panics
///
/// Panics if the registry lock is poisoned.
pub fn register_gar(
    id: impl Into<String>,
    factory: impl Fn(&ComponentSpec) -> Result<Arc<dyn Gar>, RegistryError> + Send + Sync + 'static,
) -> Result<(), RegistryError> {
    write_guard(gar_registry()).register(id, factory)
}

/// Registers a Byzantine attack under a new id.
///
/// # Errors
///
/// [`RegistryError::DuplicateId`] if the id is taken.
///
/// # Panics
///
/// Panics if the registry lock is poisoned.
pub fn register_attack(
    id: impl Into<String>,
    factory: impl Fn(&ComponentSpec) -> Result<Arc<dyn Attack>, RegistryError> + Send + Sync + 'static,
) -> Result<(), RegistryError> {
    write_guard(attack_registry()).register(id, factory)
}

/// Registers a noise mechanism under a new id, with default capabilities
/// (not budget-calibrated: the mechanism is always resolved as specified,
/// even in no-DP sweeps).
///
/// # Errors
///
/// [`RegistryError::DuplicateId`] if the id is taken.
///
/// # Panics
///
/// Panics if the registry lock is poisoned.
pub fn register_mechanism(
    id: impl Into<String>,
    factory: impl Fn(&ComponentSpec) -> Result<Arc<dyn Mechanism>, RegistryError>
        + Send
        + Sync
        + 'static,
) -> Result<(), RegistryError> {
    register_mechanism_with(id, MechanismCapabilities::default(), factory)
}

/// Registers a noise mechanism under a new id with factory-declared
/// [`MechanismCapabilities`]. A third-party budget-calibrated mechanism
/// registered with [`MechanismCapabilities::budget_calibrated`] gets the
/// same no-budget degradation to the identity mechanism as the built-in
/// `gaussian`/`laplace`, so it can participate in no-DP baseline sweeps
/// with identical semantics.
///
/// # Errors
///
/// [`RegistryError::DuplicateId`] if the id is taken.
///
/// # Panics
///
/// Panics if the registry lock is poisoned.
pub fn register_mechanism_with(
    id: impl Into<String>,
    capabilities: MechanismCapabilities,
    factory: impl Fn(&ComponentSpec) -> Result<Arc<dyn Mechanism>, RegistryError>
        + Send
        + Sync
        + 'static,
) -> Result<(), RegistryError> {
    let id = id.into();
    write_guard(mechanism_registry()).register(id.clone(), factory)?;
    write_guard(mechanism_caps()).insert(id, capabilities);
    Ok(())
}

/// The factory-declared capabilities of a mechanism id (defaults for ids
/// that never declared any, including unregistered ids).
///
/// # Panics
///
/// Panics if the capability lock is poisoned.
pub fn mechanism_capabilities(id: &str) -> MechanismCapabilities {
    read_guard(mechanism_caps())
        .get(id)
        .copied()
        .unwrap_or_default()
}

/// Resolves a GAR spec through the global registry.
///
/// # Errors
///
/// See [`Registry::create`].
///
/// # Panics
///
/// Panics if the registry lock is poisoned.
pub fn build_gar(spec: &ComponentSpec) -> Result<Arc<dyn Gar>, RegistryError> {
    // Fetch under the lock, invoke outside it: factories may recursively
    // resolve other ids (meta-rules like `bucketing`).
    let factory = read_guard(gar_registry()).factory(&spec.id)?;
    factory(spec)
}

/// Resolves an attack spec through the global registry.
///
/// # Errors
///
/// See [`Registry::create`].
///
/// # Panics
///
/// Panics if the registry lock is poisoned.
pub fn build_attack(spec: &ComponentSpec) -> Result<Arc<dyn Attack>, RegistryError> {
    let factory = read_guard(attack_registry()).factory(&spec.id)?;
    factory(spec)
}

/// Resolves a mechanism spec through the global registry.
///
/// # Errors
///
/// See [`Registry::create`].
///
/// # Panics
///
/// Panics if the registry lock is poisoned.
pub fn build_mechanism(spec: &ComponentSpec) -> Result<Arc<dyn Mechanism>, RegistryError> {
    let factory = read_guard(mechanism_registry()).factory(&spec.id)?;
    factory(spec)
}

/// All registered GAR ids.
///
/// # Panics
///
/// Panics if the registry lock is poisoned.
pub fn gar_ids() -> Vec<String> {
    read_guard(gar_registry()).ids()
}

/// All registered attack ids.
///
/// # Panics
///
/// Panics if the registry lock is poisoned.
pub fn attack_ids() -> Vec<String> {
    read_guard(attack_registry()).ids()
}

/// All registered mechanism ids.
///
/// # Panics
///
/// Panics if the registry lock is poisoned.
pub fn mechanism_ids() -> Vec<String> {
    read_guard(mechanism_registry()).ids()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_in_gars_resolve_by_id() {
        for id in [
            "average",
            "krum",
            "multi-krum",
            "mda",
            "median",
            "trimmed-mean",
            "meamed",
            "phocas",
            "bulyan",
            "geometric-median",
            "centered-clipping",
            "bucketing",
            "staleness-damped",
        ] {
            let gar = build_gar(&ComponentSpec::new(id)).unwrap();
            assert_eq!(gar.name(), id);
        }
        assert!(gar_ids().len() >= 13);
    }

    #[test]
    fn built_in_attacks_resolve_with_params() {
        let alie = build_attack(&ComponentSpec::new("alie").with("nu", 2.5)).unwrap();
        assert_eq!(alie.name(), "alie");
        let mimic = build_attack(&ComponentSpec::new("mimic").with("target", 3u64)).unwrap();
        assert_eq!(mimic.name(), "mimic");
        for id in [
            "foe",
            "sign-flip",
            "random-noise",
            "zero",
            "large-norm",
            "ipm",
            "rescaling",
        ] {
            assert_eq!(build_attack(&ComponentSpec::new(id)).unwrap().name(), id);
        }
    }

    #[test]
    fn centered_clipping_params_reach_the_factory() {
        let gar = build_gar(
            &ComponentSpec::new("centered-clipping")
                .with("tau", 0.25)
                .with("iters", 5u64),
        )
        .unwrap();
        assert_eq!(gar.name(), "centered-clipping");
        // A non-positive (or NaN) radius is a build error, not a panic.
        for bad_tau in [-1.0, 0.0, f64::NAN] {
            let err = build_gar(&ComponentSpec::new("centered-clipping").with("tau", bad_tau))
                .err()
                .unwrap();
            assert!(matches!(err, RegistryError::Build { .. }), "{err}");
        }
        // A string under the numeric key is rejected, not silently
        // replaced by the untuned default radius.
        let err = build_gar(&ComponentSpec::new("centered-clipping").with("tau", "0.01"))
            .err()
            .unwrap();
        assert!(err.to_string().contains("tau"), "{err}");
    }

    #[test]
    fn bucketing_factory_resolves_inner_rule_by_string_param() {
        // Default inner: the coordinate median at the bucketed topology.
        let default = build_gar(&ComponentSpec::new("bucketing")).unwrap();
        assert_eq!(default.max_byzantine(11), 2); // median at ⌈11/2⌉ = 6

        // Inner selected via a string param, recursively through the
        // registry (the factory re-enters `build_gar` — no deadlock).
        let krum_inner = build_gar(&ComponentSpec::new("bucketing").with("inner", "krum")).unwrap();
        assert_eq!(krum_inner.max_byzantine(11), 1); // krum at 6: (6−3)/2

        // An unresolvable inner id surfaces as a build error naming it.
        let err = build_gar(&ComponentSpec::new("bucketing").with("inner", "nope"))
            .err()
            .unwrap();
        assert!(err.to_string().contains("nope"), "{err}");

        // Non-bucketing params reach the inner factory: an invalid inner
        // tau errors instead of being silently dropped.
        let err = build_gar(
            &ComponentSpec::new("bucketing")
                .with("inner", "centered-clipping")
                .with("tau", -1.0),
        )
        .err()
        .unwrap();
        assert!(err.to_string().contains("tau"), "{err}");
        assert!(build_gar(
            &ComponentSpec::new("bucketing")
                .with("inner", "centered-clipping")
                .with("tau", 0.01),
        )
        .is_ok());

        // s = 0 is rejected.
        let err = build_gar(&ComponentSpec::new("bucketing").with("s", 0u64))
            .err()
            .unwrap();
        assert!(matches!(err, RegistryError::Build { .. }));
    }

    #[test]
    fn staleness_damped_factory_resolves_inner_rule_by_string_param() {
        // Tolerance delegates at the same (n, f): median tolerates 5 of 11.
        let default = build_gar(&ComponentSpec::new("staleness-damped")).unwrap();
        assert_eq!(default.name(), "staleness-damped");
        assert_eq!(default.max_byzantine(11), 5);

        // Inner selected via a string param, recursively through the
        // registry — including another meta-rule.
        let mda = build_gar(&ComponentSpec::new("staleness-damped").with("inner", "mda")).unwrap();
        assert_eq!(mda.max_byzantine(11), 5);
        let bucketed =
            build_gar(&ComponentSpec::new("staleness-damped").with("inner", "bucketing")).unwrap();
        assert_eq!(bucketed.max_byzantine(11), 2); // median at ⌈11/2⌉ = 6

        // Non-wrapper params reach the inner factory.
        let err = build_gar(
            &ComponentSpec::new("staleness-damped")
                .with("inner", "centered-clipping")
                .with("tau", -1.0),
        )
        .err()
        .unwrap();
        assert!(err.to_string().contains("tau"), "{err}");

        // λ outside (0, 1] (or NaN) is a build error, not a panic.
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let err = build_gar(&ComponentSpec::new("staleness-damped").with("lambda", bad))
                .err()
                .unwrap();
            assert!(matches!(err, RegistryError::Build { .. }), "{err}");
        }
        // An unresolvable inner id surfaces as a build error naming it.
        let err = build_gar(&ComponentSpec::new("staleness-damped").with("inner", "nope"))
            .err()
            .unwrap();
        assert!(err.to_string().contains("nope"), "{err}");
    }

    #[test]
    fn mechanisms_require_calibration_context() {
        let err = build_mechanism(&ComponentSpec::new("gaussian"))
            .err()
            .unwrap();
        assert!(matches!(err, RegistryError::Build { .. }));
        assert!(err.to_string().contains("epsilon"));

        let spec = ComponentSpec::new("gaussian")
            .with("epsilon", 0.2)
            .with("delta", 1e-6)
            .with("g_max", 0.01)
            .with("batch_size", 50u64);
        let mech = build_mechanism(&spec).unwrap();
        assert_eq!(mech.name(), "gaussian");
        assert!(mech.per_coordinate_std() > 0.0);

        assert_eq!(
            build_mechanism(&ComponentSpec::new("none")).unwrap().name(),
            "none"
        );
    }

    /// A built-in mechanism calibrated at `(ε, 10⁻⁶)`, `G_max = 0.01`,
    /// b = 50 and d = 69.
    fn calibrated(id: &str, epsilon: f64) -> Result<Arc<dyn Mechanism>, RegistryError> {
        build_mechanism(
            &ComponentSpec::new(id)
                .with("epsilon", epsilon)
                .with("delta", 1e-6)
                .with("g_max", 0.01)
                .with("batch_size", 50u64)
                .with("dim", 69u64),
        )
    }

    #[test]
    fn laplace_carries_more_noise_than_gaussian() {
        // Laplace noise carries the extra √d: more total variance here.
        let gaussian = calibrated("gaussian", 0.2).unwrap();
        let laplace = calibrated("laplace", 0.2).unwrap();
        assert!(laplace.total_noise_variance(69) > gaussian.total_noise_variance(69));
    }

    #[test]
    fn mechanism_calibration_errors_surface_as_build_errors() {
        // ε ≥ 1 is outside the classical Gaussian mechanism's validity.
        let err = calibrated("gaussian", 2.0).err().unwrap();
        assert!(matches!(err, RegistryError::Build { .. }), "{err}");
    }

    #[test]
    fn robust_rules_have_kappa_at_paper_topology() {
        // n = 11: MDA tolerates f = 5, Krum f = 4, Bulyan f = 2.
        let kappa = |id: &str, f: usize| build_gar(&ComponentSpec::new(id)).unwrap().kappa(11, f);
        assert!(kappa("mda", 5).is_some());
        assert!(kappa("krum", 4).is_some());
        assert!(kappa("bulyan", 2).is_some());
        assert!(kappa("average", 0).is_none());
    }

    #[test]
    fn built_in_mechanism_capabilities() {
        assert!(mechanism_capabilities("gaussian").requires_budget);
        assert!(mechanism_capabilities("laplace").requires_budget);
        assert!(!mechanism_capabilities("none").requires_budget);
        // Unregistered ids default to no declared capabilities.
        assert!(!mechanism_capabilities("no-such-mechanism").requires_budget);
    }

    #[test]
    fn register_mechanism_with_records_capabilities() {
        register_mechanism_with(
            "caps-test-budget",
            MechanismCapabilities::budget_calibrated(),
            |_| Ok(Arc::new(NoNoise) as Arc<dyn Mechanism>),
        )
        .unwrap();
        register_mechanism("caps-test-plain", |_| {
            Ok(Arc::new(NoNoise) as Arc<dyn Mechanism>)
        })
        .unwrap();
        assert!(mechanism_capabilities("caps-test-budget").requires_budget);
        assert!(!mechanism_capabilities("caps-test-plain").requires_budget);
        // Duplicate ids are still rejected and leave capabilities intact.
        let err =
            register_mechanism_with("caps-test-budget", MechanismCapabilities::default(), |_| {
                Ok(Arc::new(NoNoise) as Arc<dyn Mechanism>)
            })
            .unwrap_err();
        assert_eq!(err, RegistryError::DuplicateId("caps-test-budget".into()));
        assert!(mechanism_capabilities("caps-test-budget").requires_budget);
    }

    #[test]
    fn unknown_id_lists_available() {
        let err = build_gar(&ComponentSpec::new("no-such-gar")).err().unwrap();
        match &err {
            RegistryError::UnknownId { id, available } => {
                assert_eq!(id, "no-such-gar");
                assert!(available.iter().any(|a| a == "krum"));
            }
            other => panic!("expected UnknownId, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("no-such-gar") && msg.contains("krum"), "{msg}");
    }

    #[test]
    fn duplicate_registration_rejected() {
        let err =
            register_gar("average", |_| Ok(Arc::new(Average::new()) as Arc<dyn Gar>)).unwrap_err();
        assert_eq!(err, RegistryError::DuplicateId("average".into()));
    }

    #[test]
    fn local_registry_is_independent_of_globals() {
        let mut local: Registry<dyn Gar> = Registry::new();
        assert!(local.is_empty());
        local
            .register(
                "only-here",
                |_| Ok(Arc::new(Average::new()) as Arc<dyn Gar>),
            )
            .unwrap();
        assert_eq!(local.len(), 1);
        assert!(local.contains("only-here"));
        assert!(!gar_ids().contains(&"only-here".to_string()));
    }

    #[test]
    fn spec_param_accessors() {
        let spec = ComponentSpec::new("x")
            .with("a", 1.5)
            .with("b", 7u64)
            .with("c", "krum");
        assert_eq!(spec.f64("a"), Some(1.5));
        assert_eq!(spec.f64("b"), Some(7.0));
        assert_eq!(spec.u64("b"), Some(7));
        assert_eq!(spec.u64("a"), None); // 1.5 is not integral
        assert_eq!(spec.f64_or("missing", 9.0), 9.0);
        assert_eq!(spec.str("c"), Some("krum"));
        assert_eq!(spec.str("a"), None); // numbers don't read as strings
        assert_eq!(spec.f64("c"), None); // strings don't read as numbers
        assert_eq!(spec.str_or("missing", "mda"), "mda");
        // The strict accessors: absent falls back, wrong type rejects.
        assert_eq!(spec.f64_or_reject("missing", 2.5).unwrap(), 2.5);
        assert_eq!(spec.f64_or_reject("a", 0.0).unwrap(), 1.5);
        assert_eq!(spec.str_or_reject("c", "mda").unwrap(), "krum");
        for err in [
            spec.f64_or_reject("c", 0.0).unwrap_err(),
            spec.u64_or_reject("c", 0).unwrap_err(),
            spec.str_or_reject("a", "mda").unwrap_err(),
        ] {
            assert!(matches!(err, RegistryError::Build { .. }), "{err}");
            assert!(err.to_string().contains("must be"), "{err}");
        }
        let mut spec = spec;
        spec.default_param("a", 99.0);
        assert_eq!(spec.f64("a"), Some(1.5)); // not clobbered
    }
}
