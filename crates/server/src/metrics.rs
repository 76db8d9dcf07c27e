//! Per-run metric records and cross-seed aggregation.

use dpbyz_tensor::stats::Welford;
use dpbyz_tensor::Vector;
use serde::{Deserialize, Serialize};

/// How a distributed run degraded under churn — assembled by the round
/// machine and attached to the history so chaos tests can assert on *why*
/// a run's trajectory differs, not just that it does.
///
/// Deliberately **excluded** from [`RunHistory`]'s bitwise equality and
/// [`RunHistory::digest`]: churn accounting is transport metadata, and the
/// reproducibility pins compare trajectories, not delivery schedules. Two
/// engines may reach the same model through different drop patterns (e.g.
/// the sequential reference never detaches anyone).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnStats {
    /// Workers that disconnected mid-run (connection deaths).
    pub detached: u32,
    /// Successful `REJOIN` resumptions of previously-joined workers.
    pub reattached: u32,
    /// Successful `JOIN_FRESH` mid-run attachments of never-joined
    /// workers.
    pub joined_fresh: u32,
    /// Per-worker count of rounds aggregated without that worker's
    /// gradient (zero-substituted per §2.1).
    pub dropped_rounds: Vec<u32>,
    /// Per-worker count of gradients rejected as beyond the staleness
    /// window.
    pub stale_rejected: Vec<u32>,
    /// Per-worker count of gradients admitted late (age ≥ 1) under a
    /// `staleness_window > 0`.
    pub late_admits: Vec<u32>,
}

/// Everything recorded during one training run.
///
/// `train_loss[t]` is the paper's per-step metric: the average loss of the
/// current model over the batches the honest workers sampled at step `t+1`
/// (measured *before* the update). `test_accuracy` holds
/// `(step, cross-accuracy)` samples taken every `eval_every` steps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunHistory {
    /// Seed the run was executed with.
    pub seed: u64,
    /// Average honest-batch loss per step (length `T`).
    pub train_loss: Vec<f64>,
    /// `(step, accuracy)` samples over the test set.
    pub test_accuracy: Vec<(u32, f64)>,
    /// Empirical VN ratio of the *final* submission set the GAR aggregates
    /// — honest submissions after DP noise, plus Byzantine forgeries and
    /// fault-injection drops (what Eq. 8 bounds in the attacked system).
    /// The denominator is the pre-noise honest mean norm, the simulator's
    /// best estimate of `‖E[G]‖`. Without noise, attack, or drops this
    /// coincides with [`RunHistory::vn_clean`].
    pub vn_submitted: Vec<f64>,
    /// Empirical VN ratio of the honest *pre-noise* gradients per step
    /// (what Eq. 2 bounds without DP), same denominator.
    pub vn_clean: Vec<f64>,
    /// L2 norm of the honest pre-noise mean gradient per step.
    pub grad_norm: Vec<f64>,
    /// Final model parameters.
    pub final_params: Vector,
    /// Churn accounting (drops, staleness, mid-run joins). Not part of
    /// the bitwise equality or [`RunHistory::digest`] — see
    /// [`ChurnStats`].
    pub churn: ChurnStats,
}

/// Bitwise equality: two histories are equal iff every recorded float has
/// the same bit pattern. Unlike IEEE `==`, this makes `NaN` entries (a VN
/// statistic being unavailable) compare equal — the reproducibility
/// contract is "the same bits", not "IEEE-equal values". The `churn`
/// field is transport metadata and intentionally not compared.
impl PartialEq for RunHistory {
    fn eq(&self, other: &Self) -> bool {
        fn bits(xs: &[f64], ys: &[f64]) -> bool {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(a, b)| a.to_bits() == b.to_bits())
        }
        self.seed == other.seed
            && bits(&self.train_loss, &other.train_loss)
            && self.test_accuracy.len() == other.test_accuracy.len()
            && self
                .test_accuracy
                .iter()
                .zip(&other.test_accuracy)
                .all(|((s1, a1), (s2, a2))| s1 == s2 && a1.to_bits() == a2.to_bits())
            && bits(&self.vn_submitted, &other.vn_submitted)
            && bits(&self.vn_clean, &other.vn_clean)
            && bits(&self.grad_norm, &other.grad_norm)
            && bits(self.final_params.as_slice(), other.final_params.as_slice())
    }
}

impl RunHistory {
    /// FNV-1a digest over every bit the history records: the seed, then
    /// the bit patterns of every recorded float in field order
    /// (`train_loss`, `test_accuracy` as `(step, accuracy)` pairs,
    /// `vn_submitted`, `vn_clean`, `grad_norm`, `final_params`). Two
    /// histories digest equal iff they are `==` under the bitwise
    /// [`PartialEq`] above — a compact fingerprint for cross-engine and
    /// cross-process reproducibility checks (the golden-history pins and
    /// the distributed smoke test both compare these).
    pub fn digest(&self) -> u64 {
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bits: u64| {
            for b in bits.to_le_bytes() {
                acc ^= b as u64;
                acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(self.seed);
        for x in &self.train_loss {
            eat(x.to_bits());
        }
        for &(t, a) in &self.test_accuracy {
            eat(t as u64);
            eat(a.to_bits());
        }
        for x in &self.vn_submitted {
            eat(x.to_bits());
        }
        for x in &self.vn_clean {
            eat(x.to_bits());
        }
        for x in &self.grad_norm {
            eat(x.to_bits());
        }
        for x in self.final_params.iter() {
            eat(x.to_bits());
        }
        acc
    }

    /// Final (last-step) training loss.
    pub fn final_loss(&self) -> f64 {
        *self.train_loss.last().expect("at least one step") // lint:allow(panic-unwrap, reason = "the trainer records a loss every step before any reader observes the history")
    }

    /// Minimum training loss across steps.
    pub fn min_loss(&self) -> f64 {
        self.train_loss
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
    }

    /// First (1-based) step at which the loss dropped to within `slack` of
    /// the run's minimum, or `None` if the run never got there (always
    /// `Some` with `slack ≥ 0` since the min itself qualifies).
    pub fn steps_to_reach(&self, threshold: f64) -> Option<u32> {
        self.train_loss
            .iter()
            .position(|&l| l <= threshold)
            .map(|i| i as u32 + 1)
    }

    /// Final recorded test accuracy (if evaluation was enabled).
    pub fn final_accuracy(&self) -> Option<f64> {
        self.test_accuracy.last().map(|&(_, a)| a)
    }

    /// Best recorded test accuracy.
    pub fn best_accuracy(&self) -> Option<f64> {
        self.test_accuracy
            .iter()
            .map(|&(_, a)| a)
            .fold(None, |best, a| Some(best.map_or(a, |b: f64| b.max(a))))
    }

    /// Mean of the last `k` training losses (a smoother "final loss").
    /// Total: a zero-step history yields `NaN` instead of panicking.
    pub fn tail_loss(&self, k: usize) -> f64 {
        let n = self.train_loss.len();
        if n == 0 {
            return f64::NAN;
        }
        let k = k.clamp(1, n);
        self.train_loss[n - k..].iter().sum::<f64>() / k as f64
    }

    /// Mean empirical VN ratio of submitted gradients over all steps,
    /// ignoring non-finite entries.
    pub fn mean_vn_submitted(&self) -> f64 {
        mean_finite(&self.vn_submitted)
    }

    /// Mean empirical VN ratio of pre-noise gradients over all steps,
    /// ignoring non-finite entries.
    pub fn mean_vn_clean(&self) -> f64 {
        mean_finite(&self.vn_clean)
    }

    /// Serializes the per-step metrics as CSV
    /// (`step,train_loss,vn_clean,vn_submitted,grad_norm,test_accuracy`;
    /// the accuracy column is empty on steps without an evaluation).
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out =
            String::from("step,train_loss,vn_clean,vn_submitted,grad_norm,test_accuracy\n");
        let acc: std::collections::BTreeMap<u32, f64> =
            self.test_accuracy.iter().copied().collect();
        for (i, loss) in self.train_loss.iter().enumerate() {
            let step = i as u32 + 1;
            let a = acc.get(&step).map(|a| format!("{a}")).unwrap_or_default();
            let _ = writeln!(
                out,
                "{step},{loss},{},{},{},{a}",
                self.vn_clean[i], self.vn_submitted[i], self.grad_norm[i]
            );
        }
        out
    }
}

fn mean_finite(xs: &[f64]) -> f64 {
    let mut w = Welford::new();
    for &x in xs.iter().filter(|x| x.is_finite()) {
        w.push(x);
    }
    w.mean()
}

/// Mean ± std summary of a metric across seeds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeedSummary {
    /// Mean over seeds.
    pub mean: f64,
    /// Sample standard deviation over seeds (0 with one seed).
    pub std: f64,
    /// Number of seeds aggregated.
    pub runs: usize,
}

impl SeedSummary {
    /// Aggregates one scalar metric across runs.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn from_metric(histories: &[RunHistory], metric: impl Fn(&RunHistory) -> f64) -> Self {
        assert!(!histories.is_empty(), "need at least one run");
        let mut w = Welford::new();
        for h in histories {
            w.push(metric(h));
        }
        SeedSummary {
            mean: w.mean(),
            std: w.sample_std(),
            runs: histories.len(),
        }
    }

    /// Per-step mean ± std of the training-loss curves across runs
    /// (curves must have equal length).
    ///
    /// # Panics
    ///
    /// Panics on empty input or ragged curves.
    pub fn loss_curve(histories: &[RunHistory]) -> Vec<SeedSummary> {
        assert!(!histories.is_empty(), "need at least one run");
        let len = histories[0].train_loss.len();
        (0..len)
            .map(|t| {
                let mut w = Welford::new();
                for h in histories {
                    assert_eq!(h.train_loss.len(), len, "ragged loss curves");
                    w.push(h.train_loss[t]);
                }
                SeedSummary {
                    mean: w.mean(),
                    std: w.sample_std(),
                    runs: histories.len(),
                }
            })
            .collect()
    }

    /// Per-evaluation-point mean ± std of accuracy across runs.
    ///
    /// # Panics
    ///
    /// Panics on empty input or mismatched evaluation schedules.
    pub fn accuracy_curve(histories: &[RunHistory]) -> Vec<(u32, SeedSummary)> {
        assert!(!histories.is_empty(), "need at least one run");
        let points = histories[0].test_accuracy.len();
        (0..points)
            .map(|i| {
                let step = histories[0].test_accuracy[i].0;
                let mut w = Welford::new();
                for h in histories {
                    let (s, a) = h.test_accuracy[i];
                    assert_eq!(s, step, "mismatched evaluation schedules");
                    w.push(a);
                }
                (
                    step,
                    SeedSummary {
                        mean: w.mean(),
                        std: w.sample_std(),
                        runs: histories.len(),
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history(losses: &[f64], accs: &[(u32, f64)]) -> RunHistory {
        RunHistory {
            seed: 1,
            train_loss: losses.to_vec(),
            test_accuracy: accs.to_vec(),
            vn_submitted: vec![1.0, f64::INFINITY, 3.0],
            vn_clean: vec![0.5, 0.5, 0.5],
            grad_norm: vec![1.0; losses.len()],
            final_params: Vector::zeros(2),
            churn: ChurnStats::default(),
        }
    }

    #[test]
    fn scalar_accessors() {
        let h = history(&[3.0, 2.0, 2.5], &[(1, 0.5), (3, 0.9)]);
        assert_eq!(h.final_loss(), 2.5);
        assert_eq!(h.min_loss(), 2.0);
        assert_eq!(h.final_accuracy(), Some(0.9));
        assert_eq!(h.best_accuracy(), Some(0.9));
        assert_eq!(h.steps_to_reach(2.1), Some(2));
        assert_eq!(h.steps_to_reach(0.1), None);
        assert!((h.tail_loss(2) - 2.25).abs() < 1e-12);
    }

    #[test]
    fn tail_loss_is_total_on_empty_history() {
        let h = RunHistory {
            seed: 1,
            train_loss: vec![],
            test_accuracy: vec![],
            vn_submitted: vec![],
            vn_clean: vec![],
            grad_norm: vec![],
            final_params: Vector::zeros(1),
            churn: ChurnStats::default(),
        };
        assert!(h.tail_loss(5).is_nan());
        assert!(h.tail_loss(0).is_nan());
    }

    #[test]
    fn churn_is_excluded_from_equality_and_digest() {
        let a = history(&[1.0], &[]);
        let mut b = a.clone();
        b.churn.detached = 3;
        b.churn.joined_fresh = 1;
        b.churn.late_admits = vec![0, 2];
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn vn_means_skip_infinities() {
        let h = history(&[1.0], &[]);
        assert_eq!(h.mean_vn_submitted(), 2.0); // mean of {1, 3}
        assert_eq!(h.mean_vn_clean(), 0.5);
        assert_eq!(h.final_accuracy(), None);
    }

    #[test]
    fn to_csv_has_one_row_per_step_with_accuracy_markers() {
        let h = history(&[3.0, 2.0, 2.5], &[(2, 0.9)]);
        let csv = h.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4); // header + 3 steps
        assert!(lines[0].starts_with("step,train_loss"));
        assert!(lines[1].starts_with("1,3"));
        assert!(lines[2].ends_with("0.9"), "line 2: {}", lines[2]);
        assert!(lines[3].ends_with(','), "line 3: {}", lines[3]);
    }

    #[test]
    fn seed_summary_mean_std() {
        let hs = vec![history(&[2.0], &[]), history(&[4.0], &[])];
        let s = SeedSummary::from_metric(&hs, |h| h.final_loss());
        assert_eq!(s.mean, 3.0);
        assert!((s.std - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.runs, 2);
    }

    #[test]
    fn curves_aggregate_pointwise() {
        let hs = vec![
            history(&[1.0, 3.0], &[(1, 0.4), (2, 0.8)]),
            history(&[3.0, 5.0], &[(1, 0.6), (2, 1.0)]),
        ];
        let loss = SeedSummary::loss_curve(&hs);
        assert_eq!(loss.len(), 2);
        assert_eq!(loss[0].mean, 2.0);
        assert_eq!(loss[1].mean, 4.0);
        let acc = SeedSummary::accuracy_curve(&hs);
        assert_eq!(acc[0].0, 1);
        assert_eq!(acc[0].1.mean, 0.5);
        assert_eq!(acc[1].1.mean, 0.9);
    }
}
