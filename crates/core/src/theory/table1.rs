//! Table 1 — per-GAR necessary conditions for the VN condition under DP
//! (Propositions 1–3).
//!
//! With `C = ε/√(ln(1.25/δ))`, the proofs show the noisy VN condition
//! (Eq. 8) *cannot* hold unless:
//!
//! | GAR | necessary condition |
//! |-----|---------------------|
//! | Krum, Bulyan | `C·b ≥ √(16·d·(n + f²))` |
//! | Median | `C·b ≥ √(4·d·(n + 1))` |
//! | Meamed | `C·b ≥ √(40·d·(n + 1))` |
//! | MDA | `f/n ≤ C·b / (8·√d + C·b)` |
//! | Trimmed Mean | `f/n ≤ C²·b² / (16·d + 2·C²·b²)` |
//! | Phocas | `f/n ≤ C²·b² / (64·d + 2·C²·b²)` |
//!
//! i.e. `b ∈ Ω(√(n·d))` for the first group and `f/n ∈ O(b/(√d + b))` /
//! `O(b²/(d + b²))` for the others — the paper's headline incompatibility.

use dpbyz_dp::PrivacyBudget;
use serde::{Deserialize, Serialize};

/// The registry ids of the seven robust rules analyzed in Table 1
/// (everything except plain averaging; Multi-Krum shares Krum's row).
pub const ROBUST: [&str; 7] = [
    "krum",
    "mda",
    "median",
    "trimmed-mean",
    "meamed",
    "phocas",
    "bulyan",
];

/// The flavour of necessary condition a GAR falls under.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Condition {
    /// The batch size must be at least this large.
    MinBatch(f64),
    /// The Byzantine fraction `f/n` must be at most this large.
    MaxByzantineFraction(f64),
}

/// One row of (the reproduction of) Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// The rule's registry id.
    pub gar: String,
    /// The necessary condition evaluated at the given `(n, f, d, b, ε, δ)`.
    pub condition: Condition,
    /// Whether the supplied configuration satisfies the necessary
    /// condition. (Failing it proves the VN certificate is impossible;
    /// passing it is necessary, not sufficient.)
    pub satisfied: bool,
}

/// How a row's coefficient `k` enters its necessary condition.
#[derive(Clone, Copy)]
enum Shape {
    /// `C·b ≥ √(k·d·(n + f²))`.
    MinBatchKrum,
    /// `C·b ≥ √(k·d·(n + 1))`.
    MinBatch,
    /// `f/n ≤ C·b / (k·√d + C·b)`.
    MaxFraction,
    /// `f/n ≤ C²·b² / (k·d + 2·C²·b²)`.
    MaxFractionSquared,
}

/// Table 1 by registry id: each rule's condition shape and coefficient.
/// Multi-Krum shares Krum's row.
const ROWS: [(&str, Shape, f64); 8] = [
    ("krum", Shape::MinBatchKrum, 16.0),
    ("multi-krum", Shape::MinBatchKrum, 16.0),
    ("bulyan", Shape::MinBatchKrum, 16.0),
    ("median", Shape::MinBatch, 4.0),
    ("meamed", Shape::MinBatch, 40.0),
    ("mda", Shape::MaxFraction, 8.0),
    ("trimmed-mean", Shape::MaxFractionSquared, 16.0),
    ("phocas", Shape::MaxFractionSquared, 64.0),
];

fn row(gar: &str) -> Option<(Shape, f64)> {
    ROWS.iter()
        .find(|(id, ..)| *id == gar)
        .map(|&(_, shape, k)| (shape, k))
}

/// A min-batch row's bound `√(k·d·(n + m)) / C`.
fn min_batch(k: f64, m: f64, nf: f64, d: f64, c: f64) -> f64 {
    (k * d * (nf + m)).sqrt() / c
}

/// Evaluates the necessary condition of the GAR with registry id `gar`.
///
/// Returns `None` for ids without a row: `average` (no resilience
/// certificate exists at all), `geometric-median` and unknown ids.
pub fn condition_for(
    gar: &str,
    n: usize,
    f: usize,
    dim: usize,
    batch_size: usize,
    budget: PrivacyBudget,
) -> Option<Table1Row> {
    let (shape, k) = row(gar)?;
    let c = budget.c_constant();
    let (nf, ff, d, b) = (n as f64, f as f64, dim as f64, batch_size as f64);
    let condition = match shape {
        Shape::MinBatchKrum => Condition::MinBatch(min_batch(k, ff * ff, nf, d, c)),
        Shape::MinBatch => Condition::MinBatch(min_batch(k, 1.0, nf, d, c)),
        Shape::MaxFraction => Condition::MaxByzantineFraction(c * b / (k * d.sqrt() + c * b)),
        Shape::MaxFractionSquared => {
            let cb2 = c * c * b * b;
            Condition::MaxByzantineFraction(cb2 / (k * d + 2.0 * cb2))
        }
    };
    let satisfied = match condition {
        Condition::MinBatch(min_b) => b >= min_b,
        Condition::MaxByzantineFraction(max_tau) => ff / nf <= max_tau,
    };
    Some(Table1Row {
        gar: gar.to_string(),
        condition,
        satisfied,
    })
}

/// The full table for one configuration — one row per robust GAR.
pub fn table(
    n: usize,
    f: usize,
    dim: usize,
    batch_size: usize,
    budget: PrivacyBudget,
) -> Vec<Table1Row> {
    ROBUST
        .iter()
        .filter_map(|g| condition_for(g, n, f, dim, batch_size, budget))
        .collect()
}

/// The smallest batch size satisfying a GAR's necessary condition at a
/// fixed Byzantine fraction `f/n` (the quantity behind the paper's
/// "ResNet-50 needs b > 5000" worked example). `None` where the rule has
/// no row or the condition is vacuous (`f/n ≥ 1/2` for the trimmed rules).
pub fn required_batch(
    gar: &str,
    n: usize,
    f: usize,
    dim: usize,
    budget: PrivacyBudget,
) -> Option<usize> {
    let (shape, k) = row(gar)?;
    let c = budget.c_constant();
    let (nf, ff, d) = (n as f64, f as f64, dim as f64);
    let tau = ff / nf;
    let b = match shape {
        Shape::MinBatchKrum => min_batch(k, ff * ff, nf, d, c),
        Shape::MinBatch => min_batch(k, 1.0, nf, d, c),
        _ if f == 0 => return Some(1),
        // τ ≤ C·b/(k√d + C·b)  ⇔  b ≥ k√d·τ / (C·(1 − τ)).
        Shape::MaxFraction => k * d.sqrt() * tau / (c * (1.0 - tau)),
        // τ ≤ C²b²/(k·d + 2C²b²)  ⇔  b² ≥ k·d·τ / (C²·(1 − 2τ)).
        Shape::MaxFractionSquared => {
            if 1.0 - 2.0 * tau <= 0.0 {
                return None;
            }
            (k * d * tau / (c * c * (1.0 - 2.0 * tau))).sqrt()
        }
    };
    Some(b.ceil().max(1.0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_budget() -> PrivacyBudget {
        PrivacyBudget::new(0.2, 1e-6).unwrap()
    }

    #[test]
    fn paper_setting_fails_all_rows() {
        // n = 11, f = 5, d = 69, b = 50, (0.2, 1e-6): the paper's Fig. 2
        // configuration violates every necessary condition — exactly why
        // DP + MDA collapses under attack there.
        let rows = table(11, 5, 69, 50, paper_budget());
        assert_eq!(rows.len(), 7);
        for row in &rows {
            assert!(!row.satisfied, "{:?} unexpectedly satisfied", row.gar);
        }
    }

    #[test]
    fn huge_batch_satisfies_min_batch_rows() {
        let rows = table(11, 5, 69, 2_000_000, paper_budget());
        for row in rows {
            match row.condition {
                Condition::MinBatch(_) => assert!(row.satisfied, "{:?}", row.gar),
                // MDA's fraction cap rises toward 1 with b, and τ = 5/11 is
                // below it for b this large.
                Condition::MaxByzantineFraction(cap) => {
                    if row.gar == "mda" {
                        assert!(row.satisfied, "MDA cap {cap}");
                    }
                }
            }
        }
    }

    #[test]
    fn mda_fraction_cap_matches_formula() {
        let budget = paper_budget();
        let row = condition_for("mda", 11, 5, 69, 50, budget).unwrap();
        let c = budget.c_constant();
        let expected = c * 50.0 / (8.0 * 69f64.sqrt() + c * 50.0);
        match row.condition {
            Condition::MaxByzantineFraction(t) => assert!((t - expected).abs() < 1e-12),
            _ => panic!("MDA must yield a fraction cap"),
        }
    }

    #[test]
    fn krum_min_batch_scales_as_sqrt_nd() {
        let budget = paper_budget();
        let b1 = required_batch("krum", 11, 5, 100, budget).unwrap();
        let b2 = required_batch("krum", 11, 5, 400, budget).unwrap();
        let ratio = b2 as f64 / b1 as f64;
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn phocas_needs_larger_batch_than_trimmed_mean() {
        // 64d vs 16d under the same fraction: Phocas is strictly more
        // demanding.
        let budget = paper_budget();
        let tm = required_batch("trimmed-mean", 11, 5, 69, budget).unwrap();
        let ph = required_batch("phocas", 11, 5, 69, budget).unwrap();
        assert!(ph > tm);
    }

    #[test]
    fn required_batch_consistency_with_condition() {
        // Over a grid of topologies, model sizes and budgets, every row's
        // required batch satisfies its own condition and b − 1 does not.
        for n in [5usize, 11, 25] {
            for f in 0..=n / 2 {
                for dim in [1usize, 69, 100_000, 25_600_000] {
                    for eps in [0.1, 0.2, 0.9] {
                        let budget = PrivacyBudget::new(eps, 1e-6).unwrap();
                        for gar in ROBUST {
                            let at = (gar, n, f, dim, eps);
                            let Some(b) = required_batch(gar, n, f, dim, budget) else {
                                continue;
                            };
                            let row = condition_for(gar, n, f, dim, b, budget).unwrap();
                            assert!(row.satisfied, "{at:?} unsatisfied at its own bound b={b}");
                            if b > 1 {
                                let below = condition_for(gar, n, f, dim, b - 1, budget).unwrap();
                                assert!(!below.satisfied, "{at:?} satisfied at b={}", b - 1);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ids_resolve_through_the_registry() {
        let budget = paper_budget();
        for id in ROBUST {
            let gar = crate::registry::build_gar(&id.into()).unwrap();
            assert_eq!(gar.name(), id);
            assert!(condition_for(id, 11, 5, 69, 50, budget).is_some(), "{id}");
        }
        for id in ["average", "geometric-median", "no-such-gar"] {
            assert!(condition_for(id, 11, 5, 69, 50, budget).is_none(), "{id}");
            assert!(required_batch(id, 11, 5, 69, budget).is_none(), "{id}");
        }
    }

    #[test]
    fn average_and_half_byzantine_have_no_row() {
        let budget = paper_budget();
        assert!(condition_for("average", 11, 5, 69, 50, budget).is_none());
        // Trimmed Mean / Phocas caps are vacuous at τ ≥ 1/2.
        assert!(required_batch("trimmed-mean", 10, 5, 69, budget).is_none());
    }

    #[test]
    fn resnet50_scale_demands_impractical_batches() {
        // The §3 worked example: d = 25.6 M. Every min-batch rule demands
        // b in the tens of thousands or more; √d alone is > 5000.
        let budget = paper_budget();
        let d = 25_600_000;
        assert!((d as f64).sqrt() > 5000.0);
        let krum = required_batch("krum", 11, 5, d, budget).unwrap();
        assert!(krum > 100_000, "krum requires b = {krum}");
        let mda = required_batch("mda", 11, 5, d, budget).unwrap();
        assert!(mda > 5000, "mda requires b = {mda}");
    }
}
