//! Feasibility-frontier explorers and the §3 worked example.

use crate::theory::table1;
use dpbyz_dp::PrivacyBudget;
use serde::{Deserialize, Serialize};

/// Batch size required by a GAR's Table 1 necessary condition across model
/// sizes — the `b ∈ Ω(√d)` frontier made concrete.
///
/// Entries where the condition is vacuous (e.g. `τ ≥ 1/2` for trimmed
/// rules) are omitted.
pub fn batch_frontier(
    gar: &str,
    n: usize,
    f: usize,
    dims: &[usize],
    budget: PrivacyBudget,
) -> Vec<(usize, usize)> {
    dims.iter()
        .filter_map(|&d| table1::required_batch(gar, n, f, d, budget).map(|b| (d, b)))
        .collect()
}

/// Maximum tolerable Byzantine fraction under MDA across model sizes at a
/// fixed batch size — the `f/n ∈ O(b/(√d + b))` frontier.
pub fn mda_fraction_frontier(
    batch_size: usize,
    dims: &[usize],
    budget: PrivacyBudget,
) -> Vec<(usize, f64)> {
    let c = budget.c_constant();
    dims.iter()
        .map(|&d| {
            let cb = c * batch_size as f64;
            (d, cb / (8.0 * (d as f64).sqrt() + cb))
        })
        .collect()
}

/// The §3 worked example: ResNet-50-scale models (`d = 25.6·10⁶`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Resnet50Example {
    /// Model size used by the paper's example.
    pub dim: usize,
    /// `√d` — the paper's back-of-envelope "b > 5000".
    pub sqrt_d: f64,
    /// Per-GAR (by registry id) exact required batch size at
    /// `n = 11, f = 5` (None where the condition is vacuous).
    pub required_batches: Vec<(String, Option<usize>)>,
}

/// Computes the ResNet-50 example at the paper's topology.
pub fn resnet50_example(budget: PrivacyBudget) -> Resnet50Example {
    let dim = 25_600_000;
    Resnet50Example {
        dim,
        sqrt_d: (dim as f64).sqrt(),
        required_batches: table1::ROBUST
            .iter()
            .map(|&g| (g.to_string(), table1::required_batch(g, 11, 5, dim, budget)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_budget() -> PrivacyBudget {
        PrivacyBudget::new(0.2, 1e-6).unwrap()
    }

    #[test]
    fn batch_frontier_grows_with_dimension() {
        let frontier = batch_frontier("krum", 11, 5, &[100, 400, 1600], paper_budget());
        assert_eq!(frontier.len(), 3);
        assert!(frontier[0].1 < frontier[1].1 && frontier[1].1 < frontier[2].1);
        // Ω(√d): quadrupling d doubles the bound.
        let r = frontier[1].1 as f64 / frontier[0].1 as f64;
        assert!((r - 2.0).abs() < 0.05, "ratio {r}");
    }

    #[test]
    fn mda_fraction_shrinks_with_dimension() {
        let frontier = mda_fraction_frontier(50, &[100, 10_000, 1_000_000], paper_budget());
        assert!(frontier[0].1 > frontier[1].1 && frontier[1].1 > frontier[2].1);
        // O(1/√d) tail: 100× the d, 10× smaller cap (asymptotically).
        let r = frontier[1].1 / frontier[2].1;
        assert!((r - 10.0).abs() < 0.5, "ratio {r}");
    }

    #[test]
    fn resnet50_reproduces_impracticality() {
        let ex = resnet50_example(paper_budget());
        assert!(ex.sqrt_d > 5000.0);
        for (gar, b) in &ex.required_batches {
            if let Some(b) = b {
                assert!(*b > 5000, "{gar:?} requires only b = {b}, contradicting §3");
            }
        }
        // At τ = 5/11 > some caps nothing is vacuous except possibly none:
        // MDA must be present and finite.
        assert!(ex
            .required_batches
            .iter()
            .any(|(g, b)| g == "mda" && b.is_some()));
    }
}
