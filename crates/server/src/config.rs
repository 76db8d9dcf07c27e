//! Training configuration.

use crate::LrSchedule;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Where momentum is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MomentumMode {
    /// The server accumulates momentum on the aggregated gradient
    /// (classical parameter-server SGD; the [`TrainingConfig`] default).
    Server,
    /// Each honest worker accumulates momentum locally and submits the
    /// momentum-ed vector (El-Mhamdi et al. 2021) — the paper protocol
    /// behind its figures. Note that DP calibration then no longer matches
    /// the worker's submission sensitivity (momentum accumulates the
    /// per-sample influence by up to `1/(1 − m)`), which is itself an
    /// instructive failure mode.
    Worker,
}

/// What the Byzantine coalition observes when forging gradients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttackVisibility {
    /// The honest *submissions* — post-noise under DP. Realistic: a
    /// colluder cannot see through another worker's local randomizer.
    Submitted,
    /// The honest *pre-noise* gradients — the stronger, unrealistic
    /// ablation.
    PreNoise,
}

/// Dynamic batch-size growth — the "dynamic sampling" variance-reduction
/// technique the paper's §7 suggests investigating. The batch at step `t`
/// is `min(max, round(batch_size · factor^(t−1)))`.
///
/// DP note: the Gaussian mechanism stays calibrated for the *initial*
/// batch size. Growth only shrinks the sensitivity (`Δ = 2·G_max/b_t ≤
/// 2·G_max/b_1`), so the fixed noise keeps every step's `(ε, δ)` guarantee
/// — conservatively (later steps are over-noised relative to a per-step
/// recalibration).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchGrowth {
    /// Multiplicative growth per step (≥ 1).
    pub factor: f64,
    /// Cap on the per-step batch size.
    pub max: usize,
}

/// Errors from configuration validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `n` must be at least 1 and `f < n`.
    BadTopology {
        /// Total workers.
        n: usize,
        /// Byzantine workers.
        f: usize,
    },
    /// Batch size must be positive.
    ZeroBatch,
    /// Step count must be positive.
    ZeroSteps,
    /// Momentum must be in `[0, 1)`.
    BadMomentum(f64),
    /// Clipping threshold must be positive.
    BadClip(f64),
    /// Drop rate must be in `[0, 1)`.
    BadDropRate(f64),
    /// Gradient-EMA coefficient must be in `(0, 1)`.
    BadEma(f64),
    /// Batch-growth parameters must satisfy `factor ≥ 1` and
    /// `max ≥ batch_size`.
    BadBatchGrowth {
        /// Offending factor.
        factor: f64,
        /// Offending cap.
        max: usize,
    },
    /// Aggregation thread count must be positive.
    ZeroAggThreads,
    /// Staleness damping factor must be in `(0, 1]`.
    BadStalenessDamping(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadTopology { n, f: fa } => {
                write!(f, "need n >= 1 and f < n, got n = {n}, f = {fa}")
            }
            ConfigError::ZeroBatch => write!(f, "batch size must be positive"),
            ConfigError::ZeroSteps => write!(f, "step count must be positive"),
            ConfigError::BadMomentum(m) => write!(f, "momentum must be in [0, 1), got {m}"),
            ConfigError::BadClip(c) => write!(f, "clip threshold must be positive, got {c}"),
            ConfigError::BadDropRate(r) => write!(f, "drop rate must be in [0, 1), got {r}"),
            ConfigError::BadEma(b) => write!(f, "gradient EMA must be in (0, 1), got {b}"),
            ConfigError::BadBatchGrowth { factor, max } => write!(
                f,
                "batch growth requires factor >= 1 and max >= batch_size, got factor {factor}, max {max}"
            ),
            ConfigError::ZeroAggThreads => {
                write!(f, "aggregation thread count must be positive (1 = serial)")
            }
            ConfigError::BadStalenessDamping(l) => {
                write!(f, "staleness damping must be in (0, 1], got {l}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Hyper-parameters of one distributed training run.
///
/// Defaults are the paper's §5.1 knobs (`n = 11`, `f = 5`, `b = 50`,
/// `T = 1000`, `γ = 2` constant, momentum `0.99`, `G_max = 10⁻²`, accuracy
/// every 50 steps) with momentum at the server, which digest-pinned
/// histories rely on; the paper protocol, like `Experiment::builder()` in
/// `dpbyz-core`, puts momentum at the workers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// Total number of workers `n`.
    pub n_workers: usize,
    /// Upper bound `f` on Byzantine workers (also the count actually
    /// spawned when an attack is configured).
    pub n_byzantine: usize,
    /// Batch size `b` per worker per step.
    pub batch_size: usize,
    /// Number of synchronous steps `T`.
    pub steps: u32,
    /// Learning-rate schedule `γ_t`.
    pub lr: LrSchedule,
    /// Momentum coefficient `m ∈ [0, 1)`.
    pub momentum: f64,
    /// Momentum placement.
    pub momentum_mode: MomentumMode,
    /// L2 clipping threshold `G_max` applied by every honest worker before
    /// noising.
    pub clip: f64,
    /// Evaluate test accuracy every this many steps, plus always at the
    /// final step (0 = never).
    pub eval_every: u32,
    /// What the attacker observes.
    pub attack_visibility: AttackVisibility,
    /// Probability that an honest worker's submission is lost in a given
    /// step; the server substitutes the zero vector, exactly as §2.1
    /// prescribes for non-received gradients. 0 disables fault injection.
    pub drop_rate: f64,
    /// Server-side exponential moving average of the aggregated gradient
    /// (bias-corrected), the "exponential gradient averaging"
    /// variance-reduction idea of §7. `None` disables it.
    pub gradient_ema: Option<f64>,
    /// Dynamic batch-size growth (§7's "dynamic sampling"). `None` keeps
    /// the batch constant.
    pub batch_growth: Option<BatchGrowth>,
    /// Intra-round aggregation parallelism: the GAR's coordinate loops
    /// shard over this many threads (1 = serial, the default). The parallel result is bit-identical to serial at any
    /// count, so this is a pure throughput knob — it never changes a
    /// training trajectory.
    pub agg_threads: usize,
    /// Bounded-staleness window `k`: a gradient tagged for step `t − j`
    /// is still admitted in round `t` when `j ≤ k`, instead of being
    /// classified `Stale` and zeroed. 0 (the default) keeps the paper's
    /// strict synchronous semantics and is digest-pinned against them.
    pub staleness_window: u32,
    /// Deterministic age damping `λ ∈ (0, 1]`: an admitted gradient that
    /// is `j` rounds late is scaled by `λ^j` before the GAR sees it.
    /// Irrelevant (never applied) while `staleness_window = 0`; `λ = 1`
    /// admits late gradients at full weight.
    pub staleness_damping: f64,
}

impl TrainingConfig {
    /// Checks every knob and returns the configuration unchanged. Write a
    /// configuration as a literal over the defaults and validate it:
    /// `TrainingConfig { batch_size: 10, ..TrainingConfig::default() }.validate()`.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`].
    pub fn validate(self) -> Result<Self, ConfigError> {
        if self.n_workers == 0 || self.n_byzantine >= self.n_workers {
            return Err(ConfigError::BadTopology {
                n: self.n_workers,
                f: self.n_byzantine,
            });
        }
        if self.batch_size == 0 {
            return Err(ConfigError::ZeroBatch);
        }
        if self.steps == 0 {
            return Err(ConfigError::ZeroSteps);
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err(ConfigError::BadMomentum(self.momentum));
        }
        if !(self.clip > 0.0 && self.clip.is_finite()) {
            return Err(ConfigError::BadClip(self.clip));
        }
        if !(0.0..1.0).contains(&self.drop_rate) {
            return Err(ConfigError::BadDropRate(self.drop_rate));
        }
        if let Some(beta) = self.gradient_ema {
            if !(beta > 0.0 && beta < 1.0) {
                return Err(ConfigError::BadEma(beta));
            }
        }
        if let Some(BatchGrowth { factor, max }) = self.batch_growth {
            if !(factor >= 1.0 && factor.is_finite()) || max < self.batch_size {
                return Err(ConfigError::BadBatchGrowth { factor, max });
            }
        }
        if self.agg_threads == 0 {
            return Err(ConfigError::ZeroAggThreads);
        }
        if !(self.staleness_damping > 0.0 && self.staleness_damping <= 1.0) {
            return Err(ConfigError::BadStalenessDamping(self.staleness_damping));
        }
        Ok(self)
    }

    /// Number of honest workers `n − f` when an attack is active.
    pub fn n_honest(&self) -> usize {
        self.n_workers - self.n_byzantine
    }

    /// Number of honest workers that actually compute: [`Self::n_honest`]
    /// when an attack is armed (the `f` colluders are forged server-side
    /// and never run), all `n_workers` otherwise. Every engine and
    /// deployment sizes its worker fleet with this one rule.
    pub fn honest_workers(&self, attack_armed: bool) -> usize {
        if attack_armed {
            self.n_honest()
        } else {
            self.n_workers
        }
    }

    /// The batch size at (1-based) step `t` under the configured growth
    /// schedule.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`.
    pub fn batch_at(&self, t: u32) -> usize {
        assert!(t >= 1, "steps are 1-based");
        match self.batch_growth {
            None => self.batch_size,
            Some(BatchGrowth { factor, max }) => {
                let grown = self.batch_size as f64 * factor.powi(t as i32 - 1);
                (grown.round() as usize).clamp(self.batch_size, max)
            }
        }
    }
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            n_workers: 11,
            n_byzantine: 5,
            batch_size: 50,
            steps: 1000,
            lr: LrSchedule::Constant(2.0),
            momentum: 0.99,
            momentum_mode: MomentumMode::Server,
            clip: 1e-2,
            eval_every: 50,
            attack_visibility: AttackVisibility::Submitted,
            drop_rate: 0.0,
            gradient_ema: None,
            batch_growth: None,
            agg_threads: 1,
            staleness_window: 0,
            staleness_damping: 0.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn growth(factor: f64, max: usize) -> Option<BatchGrowth> {
        Some(BatchGrowth { factor, max })
    }

    #[test]
    fn defaults_match_paper() {
        let c = TrainingConfig::default().validate().unwrap();
        assert_eq!(c.n_workers, 11);
        assert_eq!(c.n_byzantine, 5);
        assert_eq!(c.batch_size, 50);
        assert_eq!(c.steps, 1000);
        assert_eq!(c.lr, LrSchedule::Constant(2.0));
        assert_eq!(c.momentum, 0.99);
        assert_eq!(c.clip, 1e-2);
        assert_eq!(c.eval_every, 50);
        assert_eq!(c.agg_threads, 1);
        assert_eq!(c.staleness_window, 0);
        assert_eq!(c.staleness_damping, 0.5);
        assert_eq!(c.n_honest(), 6);
        assert_eq!(c.honest_workers(true), 6);
        assert_eq!(c.honest_workers(false), 11);
    }

    #[test]
    fn batch_at_schedule() {
        let constant = TrainingConfig::default().validate().unwrap();
        assert_eq!(constant.batch_at(1), 50);
        assert_eq!(constant.batch_at(1000), 50);

        let growing = TrainingConfig {
            batch_size: 10,
            batch_growth: growth(1.1, 100),
            ..TrainingConfig::default()
        }
        .validate()
        .unwrap();
        assert_eq!(growing.batch_at(1), 10);
        assert_eq!(growing.batch_at(2), 11);
        assert!(growing.batch_at(20) > growing.batch_at(10));
        assert_eq!(growing.batch_at(200), 100); // capped
    }

    #[test]
    fn extension_validation() {
        let default = TrainingConfig::default;
        for valid in [
            TrainingConfig {
                drop_rate: 0.3,
                ..default()
            },
            TrainingConfig {
                gradient_ema: Some(0.9),
                ..default()
            },
        ] {
            assert!(valid.validate().is_ok());
        }
        assert!(matches!(
            TrainingConfig {
                drop_rate: 1.0,
                ..default()
            }
            .validate(),
            Err(ConfigError::BadDropRate(_))
        ));
        assert!(matches!(
            TrainingConfig {
                gradient_ema: Some(1.0),
                ..default()
            }
            .validate(),
            Err(ConfigError::BadEma(_))
        ));
        for (batch_size, batch_growth) in [(50, growth(0.5, 100)), (50, growth(1.1, 10))] {
            assert!(matches!(
                TrainingConfig {
                    batch_size,
                    batch_growth,
                    ..default()
                }
                .validate(),
                Err(ConfigError::BadBatchGrowth { .. })
            ));
        }
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let default = TrainingConfig::default;
        let topology = |n_workers, n_byzantine| TrainingConfig {
            n_workers,
            n_byzantine,
            ..default()
        };
        assert!(matches!(
            topology(5, 5).validate(),
            Err(ConfigError::BadTopology { .. })
        ));
        assert!(matches!(
            topology(0, 0).validate(),
            Err(ConfigError::BadTopology { .. })
        ));
        let cases = [
            (
                TrainingConfig {
                    batch_size: 0,
                    ..default()
                },
                ConfigError::ZeroBatch,
            ),
            (
                TrainingConfig {
                    steps: 0,
                    ..default()
                },
                ConfigError::ZeroSteps,
            ),
            (
                TrainingConfig {
                    momentum: 1.0,
                    ..default()
                },
                ConfigError::BadMomentum(1.0),
            ),
            (
                TrainingConfig {
                    clip: 0.0,
                    ..default()
                },
                ConfigError::BadClip(0.0),
            ),
            (
                TrainingConfig {
                    agg_threads: 0,
                    ..default()
                },
                ConfigError::ZeroAggThreads,
            ),
        ];
        for (config, expected) in cases {
            assert_eq!(config.validate(), Err(expected));
        }
    }

    #[test]
    fn staleness_validation() {
        let damped = |staleness_damping| TrainingConfig {
            staleness_window: 3,
            staleness_damping,
            ..TrainingConfig::default()
        };
        let c = damped(0.9).validate().unwrap();
        assert_eq!(c.staleness_window, 3);
        assert_eq!(c.staleness_damping, 0.9);
        // λ = 1 (no damping) is allowed; 0, amplifying, and NaN are not.
        assert!(damped(1.0).validate().is_ok());
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(matches!(
                damped(bad).validate(),
                Err(ConfigError::BadStalenessDamping(_))
            ));
        }
    }

    #[test]
    fn errors_display() {
        assert!(ConfigError::BadTopology { n: 5, f: 5 }
            .to_string()
            .contains("n = 5"));
        assert!(ConfigError::BadMomentum(1.5).to_string().contains("1.5"));
    }
}
