//! The fluent experiment builder: the front door of the redesigned API.
//!
//! [`ExperimentBuilder`] assembles an [`Experiment`] from string component
//! ids (resolved through the [`registry`](crate::registry)) or full
//! [`ComponentSpec`]s, layered over the paper's §5.1
//! protocol defaults. Component ids are validated at [`build`] time, so a
//! typo fails fast with the list of available ids instead of erroring
//! mid-sweep.
//!
//! ```
//! use dpbyz_core::Experiment;
//!
//! let exp = Experiment::builder()
//!     .steps(20)
//!     .dataset_size(300)
//!     .gar("krum")
//!     .attack("alie")
//!     .byzantine(4)
//!     .epsilon(0.2)
//!     .build()
//!     .unwrap();
//! let histories = exp.run_seeds(&[1, 2]).unwrap();
//! assert_eq!(histories.len(), 2);
//! ```

use crate::pipeline::{Experiment, PipelineError, Workload};
use crate::registry::{self, ComponentSpec};
use dpbyz_dp::PrivacyBudget;
use dpbyz_server::{LrSchedule, MomentumMode, TrainingConfig};

/// Fluent builder for [`Experiment`]; see the module docs for an example.
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    workload: Option<Workload>,
    pub(crate) dataset_size: usize,
    pub(crate) data_seed: u64,
    /// The only copy of the training knobs; every knob setter edits it.
    config: TrainingConfig,
    gar: Option<ComponentSpec>,
    attack: Option<ComponentSpec>,
    mechanism: ComponentSpec,
    epsilon: Option<f64>,
    pub(crate) delta: f64,
    backend: ComponentSpec,
    dp_reference_g_max: Option<f64>,
}

impl Experiment {
    /// Starts a builder pre-loaded with the paper's §5.1 protocol: the
    /// phishing-like workload, n = 11 workers (f = 5 once an attack is
    /// armed), b = 50, T = 1000, lr 2, momentum 0.99 at the workers,
    /// `G_max = 10⁻²`, no attack, no DP. The aggregation rule defaults to
    /// plain averaging — or MDA once an attack is armed, exactly as the
    /// paper's figures do.
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::default()
    }
}

impl Default for ExperimentBuilder {
    fn default() -> Self {
        ExperimentBuilder {
            workload: None,
            dataset_size: dpbyz_data::synthetic::PHISHING_SIZE,
            data_seed: 0xD1B2_2021,
            // Momentum lives at the *workers* (El-Mhamdi et al. 2021, the
            // paper's [16] — same authors, same experimental codebase):
            // each honest worker submits its momentum-ed clipped gradient.
            // This is load-bearing for Fig. 2's left panel — worker
            // momentum shrinks the variance-to-norm ratio of the submitted
            // vectors over time, which is what lets MDA survive ALIE
            // without DP; with server-side momentum ALIE defeats MDA even
            // noise-free. The server-side variant remains available as an
            // ablation (`sweep` binary).
            config: TrainingConfig {
                momentum_mode: MomentumMode::Worker,
                ..TrainingConfig::default()
            },
            gar: None,
            attack: None,
            mechanism: ComponentSpec::new("gaussian"),
            epsilon: None,
            delta: 1e-6,
            backend: ComponentSpec::new("sequential"),
            dp_reference_g_max: None,
        }
    }
}

impl ExperimentBuilder {
    /// Sets the workload explicitly (otherwise the phishing-like synthetic
    /// dataset of the paper's figures, sized by
    /// [`dataset_size`](Self::dataset_size)).
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Sets the synthetic dataset size of the default workload.
    #[must_use]
    pub fn dataset_size(mut self, size: usize) -> Self {
        self.dataset_size = size;
        self
    }

    /// Sets the dataset generator seed of the default workload.
    #[must_use]
    pub fn data_seed(mut self, seed: u64) -> Self {
        self.data_seed = seed;
        self
    }

    /// Replaces the entire training configuration. The knob setters below
    /// edit this one configuration, so calls apply in order: a knob set
    /// before `config(..)` is overwritten by it, and a knob set after it
    /// overrides that field of `config`. [`build`](Self::build) validates
    /// the result like any other, so an invalid knob fails there.
    #[must_use]
    pub fn config(mut self, config: TrainingConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets `n` total and `f` Byzantine workers.
    #[must_use]
    pub fn workers(mut self, n: usize, f: usize) -> Self {
        self.config.n_workers = n;
        self.config.n_byzantine = f;
        self
    }

    /// Sets the total worker count `n` only.
    #[must_use]
    pub fn n_workers(mut self, n: usize) -> Self {
        self.config.n_workers = n;
        self
    }

    /// Sets the Byzantine count `f` only.
    #[must_use]
    pub fn byzantine(mut self, f: usize) -> Self {
        self.config.n_byzantine = f;
        self
    }

    /// Sets the per-worker batch size `b`.
    #[must_use]
    pub fn batch_size(mut self, b: usize) -> Self {
        self.config.batch_size = b;
        self
    }

    /// Sets the number of steps `T`.
    #[must_use]
    pub fn steps(mut self, t: u32) -> Self {
        self.config.steps = t;
        self
    }

    /// Sets the learning-rate schedule.
    #[must_use]
    pub fn lr(mut self, lr: LrSchedule) -> Self {
        self.config.lr = lr;
        self
    }

    /// Sets the momentum coefficient.
    #[must_use]
    pub fn momentum(mut self, m: f64) -> Self {
        self.config.momentum = m;
        self
    }

    /// Sets the momentum placement.
    #[must_use]
    pub fn momentum_mode(mut self, mode: MomentumMode) -> Self {
        self.config.momentum_mode = mode;
        self
    }

    /// Sets the clipping threshold `G_max`.
    #[must_use]
    pub fn clip(mut self, g_max: f64) -> Self {
        self.config.clip = g_max;
        self
    }

    /// Sets the accuracy evaluation period (0 disables evaluation).
    #[must_use]
    pub fn eval_every(mut self, period: u32) -> Self {
        self.config.eval_every = period;
        self
    }

    /// Sets the intra-round aggregation thread count (1 = serial, the
    /// default). The GAR's coordinate loops shard over this many threads;
    /// the parallel result is bit-identical to serial at any count, so
    /// this is a pure throughput knob.
    #[must_use]
    pub fn agg_threads(mut self, threads: usize) -> Self {
        self.config.agg_threads = threads;
        self
    }

    /// Sets the bounded-staleness window `k`: a report up to `k` rounds
    /// late is admitted (0, the default, admits only the current round).
    #[must_use]
    pub fn staleness_window(mut self, k: u32) -> Self {
        self.config.staleness_window = k;
        self
    }

    /// Sets the damping `λ ∈ (0, 1]` a report `j` rounds late is scaled
    /// by (`λ^j`); [`build`](Self::build) rejects values outside.
    #[must_use]
    pub fn staleness_damping(mut self, lambda: f64) -> Self {
        self.config.staleness_damping = lambda;
        self
    }

    /// Sets the aggregation rule by registry id or full spec.
    /// Unset, the rule follows the paper's protocol: plain averaging, or
    /// MDA once an attack is armed.
    #[must_use]
    pub fn gar(mut self, gar: impl Into<ComponentSpec>) -> Self {
        self.gar = Some(gar.into());
        self
    }

    /// Arms an attack by registry id or full spec.
    #[must_use]
    pub fn attack(mut self, attack: impl Into<ComponentSpec>) -> Self {
        self.attack = Some(attack.into());
        self
    }

    /// Disarms any attack (undoes [`attack`](Self::attack)): every worker
    /// is honest again. Scenario packs use this so an explicitly clean
    /// cell stays clean even over an attack-carrying base.
    #[must_use]
    pub fn unattacked(mut self) -> Self {
        self.attack = None;
        self
    }

    /// Sets the noise mechanism by registry id or full spec. The
    /// budget-calibrated built-ins (`gaussian`, `laplace`)
    /// degrade to the identity mechanism while no budget is set; a custom
    /// registered mechanism is always resolved as specified, with the
    /// calibration context injected for factories that want it.
    #[must_use]
    pub fn mechanism(mut self, mechanism: impl Into<ComponentSpec>) -> Self {
        self.mechanism = mechanism.into();
        self
    }

    /// Enables DP with per-step budget `(ε, delta)` (δ defaults to the
    /// paper's 10⁻⁶; see [`delta`](Self::delta)).
    #[must_use]
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = Some(epsilon);
        self
    }

    /// Sets the privacy `δ` used with [`epsilon`](Self::epsilon).
    #[must_use]
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Sets ε and δ from a validated budget, like
    /// [`epsilon`](Self::epsilon) + [`delta`](Self::delta) — later calls
    /// to either override it.
    #[must_use]
    pub fn budget(mut self, budget: PrivacyBudget) -> Self {
        self.epsilon = Some(budget.epsilon());
        self.delta = budget.delta();
        self
    }

    /// Clears any privacy budget (undoes [`epsilon`](Self::epsilon) /
    /// [`budget`](Self::budget)): the experiment runs noise-free. Scenario
    /// packs use this so an explicitly no-DP cell stays no-DP even over a
    /// DP-carrying base.
    #[must_use]
    pub fn no_dp(mut self) -> Self {
        self.epsilon = None;
        self
    }

    /// Selects the execution backend by registry id (`"sequential"`,
    /// `"tcp"`, `"sim"`, or any registered id, optionally with
    /// parameters via a full [`ComponentSpec`]). All backends are
    /// bit-identical on clean runs. The id is resolved at *run* time, not
    /// here: backends registered after `build()` (e.g. `dpbyz-net`'s
    /// `install()`) still work, and an unknown id surfaces from `run` as
    /// a spec error naming the available backends.
    #[must_use]
    pub fn backend(mut self, backend: impl Into<ComponentSpec>) -> Self {
        self.backend = backend.into();
        self
    }

    /// Calibrates DP noise at a reference `G_max` different from the clip
    /// threshold (the Theorem 1 workload's unclipped-noise protocol).
    #[must_use]
    pub fn dp_reference_g_max(mut self, g_max: f64) -> Self {
        self.dp_reference_g_max = Some(g_max);
        self
    }

    /// Validates component ids and assembles the [`Experiment`].
    ///
    /// # Errors
    ///
    /// [`PipelineError::Registry`] for unknown component ids (the message
    /// lists what is registered), [`PipelineError::Dp`] for a bad budget,
    /// [`PipelineError::Config`] for inconsistent training knobs,
    /// [`PipelineError::Spec`] when an armed attack's Byzantine count
    /// exceeds the chosen rule's tolerance.
    pub fn build(self) -> Result<Experiment, PipelineError> {
        // The paper's protocol when the rule is left unset: averaging over
        // honest workers, or MDA once an attack is armed.
        let gar_spec = self.gar.unwrap_or_else(|| {
            ComponentSpec::new(if self.attack.is_some() {
                "mda"
            } else {
                "average"
            })
        });

        // Fail fast on unresolvable ids: building the components validates
        // both the ids and (for attacks/GARs) their parameters. The
        // mechanism's factory needs run-time calibration context, so only
        // its id is checked here.
        let gar = registry::build_gar(&gar_spec)?;
        if let Some(attack) = &self.attack {
            registry::build_attack(attack)?;
        }
        let known_mechanisms = registry::mechanism_ids();
        if !known_mechanisms.contains(&self.mechanism.id) {
            return Err(registry::RegistryError::UnknownId {
                id: self.mechanism.id.clone(),
                available: known_mechanisms,
            }
            .into());
        }

        let budget = self
            .epsilon
            .map(|e| PrivacyBudget::new(e, self.delta))
            .transpose()?;

        // An unarmed attack means every worker is honest: a nonzero
        // `n_byzantine` left over from the defaults or an explicit config
        // would make the GAR trim (or reject) honest submissions on step 1.
        let mut config = self.config;
        if self.attack.is_none() {
            config.n_byzantine = 0;
        }
        let config = config.validate()?;

        // An experiment whose rule cannot tolerate its Byzantine count
        // would error on step 1 of every run; reject it here instead.
        let tolerance = gar.max_byzantine(config.n_workers);
        if config.n_byzantine > tolerance {
            return Err(PipelineError::Spec(format!(
                "gar `{}` tolerates at most {tolerance} Byzantine workers \
                 among {}, but the experiment arms {} — lower `byzantine(..)` \
                 or pick a more tolerant rule",
                gar_spec.id, config.n_workers, config.n_byzantine
            )));
        }

        let workload = self.workload.unwrap_or(Workload::PhishingLike {
            data_seed: self.data_seed,
            size: self.dataset_size,
        });

        Ok(Experiment {
            workload,
            config,
            gar: gar_spec,
            attack: self.attack,
            budget,
            mechanism: self.mechanism,
            backend: self.backend,
            dp_reference_g_max: self.dp_reference_g_max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryError;

    #[test]
    fn defaults_mirror_paper_protocol() {
        let exp = Experiment::builder().build().unwrap();
        assert_eq!(exp.gar, ComponentSpec::new("average"));
        assert_eq!(exp.config.n_workers, 11);
        assert_eq!(exp.config.n_byzantine, 0); // no attack armed
        assert_eq!(exp.config.batch_size, 50);
        assert!(exp.budget.is_none());
        assert_eq!(exp.backend.id, "sequential");
    }

    #[test]
    fn string_ids_and_kinds_both_accepted() {
        let by_id = Experiment::builder()
            .gar("mda")
            .attack("alie")
            .build()
            .unwrap();
        let by_spec = Experiment::builder()
            .gar(ComponentSpec::new("mda"))
            .attack(ComponentSpec::new("alie").with("nu", 1.5))
            .build()
            .unwrap();
        assert_eq!(by_id.gar, by_spec.gar);
        // The bare id carries no ν parameter; the spec pins the paper's.
        assert_eq!(by_id.attack.as_ref().unwrap().id, "alie");
        assert_eq!(by_spec.attack.as_ref().unwrap().f64("nu"), Some(1.5));
    }

    #[test]
    fn arming_an_attack_activates_byzantine_workers_and_mda() {
        let exp = Experiment::builder().attack("foe").build().unwrap();
        assert_eq!(exp.config.n_byzantine, 5);
        // The paper protocol: an armed attack without an explicit rule
        // aggregates with MDA (averaging tolerates no Byzantine workers).
        assert_eq!(exp.gar, ComponentSpec::new("mda"));
        let custom_f = Experiment::builder()
            .attack("foe")
            .byzantine(3)
            .build()
            .unwrap();
        assert_eq!(custom_f.config.n_byzantine, 3);
    }

    #[test]
    fn intolerable_byzantine_count_rejected_at_build() {
        // Averaging tolerates f = 0; arming an attack against it must not
        // produce an experiment that errors on step 1 of every run.
        let err = Experiment::builder()
            .gar("average")
            .attack("alie")
            .build()
            .expect_err("average cannot host 5 Byzantine workers");
        assert!(matches!(err, PipelineError::Spec(_)));
        assert!(err.to_string().contains("average"), "{err}");
        // Krum at n = 11 tolerates 4, not 5.
        let err = Experiment::builder()
            .gar("krum")
            .attack("alie")
            .build()
            .expect_err("krum tolerates only 4 at n = 11");
        assert!(err.to_string().contains("at most 4"), "{err}");
        assert!(Experiment::builder()
            .gar("krum")
            .attack("alie")
            .byzantine(4)
            .build()
            .is_ok());
    }

    #[test]
    fn unknown_mechanism_id_rejected_at_build() {
        let err = Experiment::builder()
            .mechanism("gausian")
            .build()
            .expect_err("typo'd mechanism id fails fast");
        let message = err.to_string();
        assert!(
            message.contains("gausian") && message.contains("gaussian"),
            "{message}"
        );
    }

    #[test]
    fn unknown_ids_fail_fast_with_available_list() {
        let err = Experiment::builder().gar("krumm").build().unwrap_err();
        match err {
            PipelineError::Registry(RegistryError::UnknownId { id, available }) => {
                assert_eq!(id, "krumm");
                assert!(available.contains(&"krum".to_string()));
            }
            other => panic!("expected registry error, got {other}"),
        }
    }

    #[test]
    fn epsilon_sets_budget_and_runs_end_to_end() {
        let exp = Experiment::builder()
            .steps(10)
            .dataset_size(300)
            .gar("mda")
            .attack("alie")
            .epsilon(0.2)
            .build()
            .unwrap();
        let budget = exp.budget.expect("budget set");
        assert_eq!(budget.epsilon(), 0.2);
        assert_eq!(budget.delta(), 1e-6);
        let h = exp.run(1).unwrap();
        assert_eq!(h.train_loss.len(), 10);
    }

    #[test]
    fn invalid_epsilon_rejected_at_build() {
        let err = Experiment::builder().epsilon(-0.5).build().unwrap_err();
        assert!(matches!(err, PipelineError::Dp(_)));
    }

    #[test]
    fn explicit_config_overrides_knobs() {
        let config = TrainingConfig::builder()
            .workers(3, 0)
            .batch_size(4)
            .steps(7)
            .build()
            .unwrap();
        let exp = Experiment::builder()
            .workers(20, 9)
            .steps(999)
            .config(config.clone())
            .build()
            .unwrap();
        assert_eq!(exp.config, config);
    }

    #[test]
    fn topology_knobs_after_explicit_config_write_through() {
        // Scenario-pack cells pin workers/byzantine/batch over arbitrary
        // bases, including ones assembled from a full TrainingConfig:
        // knobs set AFTER config() must win.
        let config = TrainingConfig::builder()
            .workers(7, 3)
            .batch_size(4)
            .steps(9)
            .build()
            .unwrap();
        let exp = Experiment::builder()
            .config(config)
            .attack("alie")
            .n_workers(11)
            .byzantine(5)
            .batch_size(16)
            .build()
            .unwrap();
        assert_eq!(exp.config.n_workers, 11);
        assert_eq!(exp.config.n_byzantine, 5);
        assert_eq!(exp.config.batch_size, 16);
        assert_eq!(exp.config.steps, 9); // untouched knob kept
    }

    #[test]
    fn unarmed_explicit_config_zeroes_byzantine_count() {
        // The knob path's "no attack ⇒ every worker honest" rule applies
        // to explicit configs too: otherwise a clean cell over a
        // config-carrying base keeps f > 0 and averaging rejects (or a
        // robust rule trims) honest submissions on step 1.
        let config = TrainingConfig::builder()
            .workers(11, 5)
            .batch_size(8)
            .steps(2)
            .build()
            .unwrap();
        let clean = Experiment::builder()
            .dataset_size(200)
            .config(config.clone())
            .build()
            .unwrap();
        assert_eq!(clean.config.n_byzantine, 0);
        assert!(clean.run(1).is_ok());
        // With an attack armed the config's f is preserved.
        let armed = Experiment::builder()
            .dataset_size(200)
            .config(config)
            .attack("alie")
            .build()
            .unwrap();
        assert_eq!(armed.config.n_byzantine, 5);
    }

    #[test]
    fn knobs_after_explicit_config_apply() {
        let config = TrainingConfig::builder()
            .workers(3, 0)
            .batch_size(4)
            .steps(7)
            .build()
            .unwrap();
        let exp = Experiment::builder()
            .config(config)
            .steps(5)
            .clip(0.5)
            .build()
            .unwrap();
        assert_eq!(exp.config.steps, 5);
        assert_eq!(exp.config.clip, 0.5);
        assert_eq!(exp.config.batch_size, 4); // untouched knob kept
    }

    #[test]
    fn explicit_config_is_validated() {
        let config = TrainingConfig::builder().build().unwrap();
        let err = Experiment::builder()
            .config(config)
            .batch_size(0)
            .build()
            .expect_err("a zero batch is invalid however it is set");
        assert!(matches!(err, PipelineError::Config(_)), "{err}");
    }

    #[test]
    fn paper_constructors_keep_their_training_configs() {
        use crate::pipeline::FigureConfig;
        // Each constructor's config, written out as a
        // `TrainingConfig::builder()` literal.
        let figure = |n_byz: usize| {
            TrainingConfig::builder()
                .workers(11, n_byz)
                .batch_size(10)
                .steps(30)
                .lr(LrSchedule::Constant(2.0))
                .momentum(0.99)
                .momentum_mode(MomentumMode::Worker)
                .clip(1e-2)
                .eval_every(50)
                .build()
                .unwrap()
        };
        let fig = FigureConfig {
            batch_size: 10,
            steps: 30,
            dataset_size: 400,
            ..FigureConfig::default()
        };
        let clean = Experiment::paper_figure(fig.clone()).unwrap();
        assert_eq!(clean.config, figure(0));
        let dp_alie = Experiment::paper_figure(FigureConfig {
            epsilon: Some(0.2),
            attack: Some("alie".into()),
            ..fig
        })
        .unwrap();
        assert_eq!(dp_alie.config, figure(5));

        let theorem1 = Experiment::theorem1(8, 1.0, None, 50, 4, 3).unwrap();
        let expected = TrainingConfig::builder()
            .workers(3, 0)
            .batch_size(4)
            .steps(50)
            .lr(LrSchedule::InvT { gamma0: 1.0 })
            .momentum(0.0)
            .clip(1e9)
            .eval_every(0)
            .build()
            .unwrap();
        assert_eq!(theorem1.config, expected);
        assert_eq!(theorem1.config.momentum_mode, MomentumMode::Server);
    }
}
