//! MDA — Minimum-Diameter Averaging (El-Mhamdi et al. 2020).
//!
//! MDA returns the mean of the cardinality-`(n − f)` subset of gradients
//! with the smallest diameter (`max` pairwise L2 distance). The paper's
//! experiments use MDA because it has the *largest* known VN bound,
//! `κ = (n − f)/(√8·f)` — the most noise-tolerant certified GAR — which
//! makes its failure under DP noise (Fig. 2) the strongest demonstration of
//! the antagonism.

use crate::scratch::mean_indexed_into;
use crate::{check_input, Gar, GarError, GarScratch};
use dpbyz_tensor::{stats, Vector};

/// Exhaustive search is used while `C(n, n−f)` stays below this bound;
/// beyond it MDA falls back to a 2-approximate heuristic.
const EXACT_ENUMERATION_LIMIT: u128 = 200_000;

/// Minimum-Diameter Averaging.
///
/// # Example
///
/// ```
/// use dpbyz_gars::{Gar, Mda};
/// use dpbyz_tensor::Vector;
///
/// let grads = vec![
///     Vector::from(vec![0.0]),
///     Vector::from(vec![0.1]),
///     Vector::from(vec![-0.1]),
///     Vector::from(vec![9.9]), // Byzantine
/// ];
/// let out = Mda::new().aggregate(&grads, 1).unwrap();
/// assert!((out[0] - 0.0).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mda;

impl Mda {
    /// Creates the rule.
    pub fn new() -> Self {
        Mda
    }

    /// Whether `(n, f)` will be solved exactly (subset enumeration) rather
    /// than by the greedy 2-approximation.
    pub fn is_exact(n: usize, f: usize) -> bool {
        binomial(n, n.saturating_sub(f)) <= EXACT_ENUMERATION_LIMIT
    }
}

fn check_tolerance(n: usize, f: usize) -> Result<(), GarError> {
    // Need a strict majority of honest workers.
    if 2 * f >= n {
        return Err(GarError::TooManyByzantine {
            n,
            f,
            max: n.saturating_sub(1) / 2,
        });
    }
    Ok(())
}

fn binomial(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i as u128 + 1);
        if acc > EXACT_ENUMERATION_LIMIT * 1000 {
            return u128::MAX;
        }
    }
    acc
}

/// Flat symmetric squared-distance table (row-major `n × n`), kept for the
/// unit tests that drive the subset searches directly (the hot path fills
/// the scratch's matrix via [`GarScratch::fill_dist2_active`]).
#[cfg(test)]
fn distance_table(gradients: &[Vector]) -> Vec<f64> {
    let n = gradients.len();
    let mut d = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let dist = gradients[i].l2_distance_squared(&gradients[j]);
            d[i * n + j] = dist;
            d[j * n + i] = dist;
        }
    }
    d
}

/// Lexicographic strict order on coordinates — the canonical tie-break.
/// Distinct subsets can share the exact minimal diameter (the same critical
/// pair can realize the max in both), so "first found wins" would make the
/// output depend on submission order.
fn lex_less(a: &Vector, b: &Vector) -> bool {
    for (x, y) in a.iter().zip(b.iter()) {
        if x < y {
            return true;
        }
        if x > y {
            return false;
        }
    }
    false
}

/// Exact minimum-diameter subset, writing the *mean* of the best subset
/// into `out`; diameter ties are broken by the lexicographically smallest
/// mean. `candidate` is a scratch buffer for the challenger mean.
///
/// A depth-first search over the subsets in lexicographic order: `combo`
/// holds the current prefix and `diams[k]` the diameter of `combo[..=k]`,
/// each extended one index at a time. A prefix whose diameter is strictly
/// greater than the best complete subset so far is pruned — every
/// completion comes later in the order and is at least as wide, so the
/// flat enumeration would have skipped it too. Subsets that tie the best
/// diameter are still visited in the flat enumeration's order, so the
/// output is bit-identical to it.
#[allow(clippy::too_many_arguments)]
fn exact_min_diameter_mean(
    gradients: &[Vector],
    dist2: &[f64],
    n: usize,
    m: usize,
    combo: &mut Vec<usize>,
    diams: &mut Vec<f64>,
    candidate: &mut Vector,
    out: &mut Vector,
) {
    combo.clear();
    diams.clear();
    let mut best_diam: Option<f64> = None;
    // The index to try at position `combo.len()`.
    let mut next = 0;
    loop {
        let depth = combo.len();
        // `next` can take this position only if enough indices remain
        // after it to fill the rest of the subset.
        if next + (m - depth) > n {
            match combo.pop() {
                Some(last) => {
                    diams.pop();
                    next = last + 1;
                    continue;
                }
                None => return,
            }
        }
        let j = next;
        next += 1;
        let mut diam = diams.last().copied().unwrap_or(0.0);
        for &i in combo.iter() {
            diam = diam.max(dist2[i * n + j]);
        }
        if best_diam.is_some_and(|best| diam > best) {
            continue;
        }
        combo.push(j);
        if depth + 1 < m {
            diams.push(diam);
            continue;
        }
        match best_diam {
            Some(best) if diam == best => {
                mean_indexed_into(gradients, combo, candidate);
                if lex_less(candidate, out) {
                    std::mem::swap(candidate, out);
                }
            }
            _ => {
                best_diam = Some(diam);
                mean_indexed_into(gradients, combo, out);
            }
        }
        combo.pop();
    }
}

/// The flat enumeration the pruned search replaces: every subset in
/// lexicographic order, each diameter rebuilt from scratch. Kept as the
/// reference the pruned search must match bit for bit.
#[cfg(test)]
fn exact_min_diameter_mean_flat(
    gradients: &[Vector],
    dist2: &[f64],
    n: usize,
    m: usize,
    combo: &mut Vec<usize>,
    candidate: &mut Vector,
    out: &mut Vector,
) {
    combo.clear();
    combo.extend(0..m);
    mean_indexed_into(gradients, combo, out);
    let mut best_diam = subset_diameter(dist2, n, combo);
    loop {
        // Advance to the next combination.
        let mut i = m;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            if combo[i] != i + n - m {
                break;
            }
            if i == 0 {
                return;
            }
        }
        combo[i] += 1;
        for j in (i + 1)..m {
            combo[j] = combo[j - 1] + 1;
        }
        let diam = subset_diameter(dist2, n, combo);
        if diam < best_diam {
            best_diam = diam;
            mean_indexed_into(gradients, combo, out);
        } else if diam == best_diam {
            mean_indexed_into(gradients, combo, candidate);
            if lex_less(candidate, out) {
                std::mem::swap(candidate, out);
            }
        }
    }
}

fn subset_diameter(dist2: &[f64], n: usize, subset: &[usize]) -> f64 {
    let mut d: f64 = 0.0;
    for (a, &i) in subset.iter().enumerate() {
        for &j in &subset[a + 1..] {
            d = d.max(dist2[i * n + j]);
        }
    }
    d
}

/// Greedy 2-approximation: for every anchor `i`, take the `m` gradients
/// nearest to `i` and measure that subset's diameter; keep the best subset.
/// The optimal subset's diameter `D*` bounds each member's distance to the
/// anchor it contains, so the best anchored subset has diameter ≤ 2·D*.
/// Diameter ties are broken by the lexicographically smallest subset mean,
/// as in the exact search. Each anchor's sort compares every distance in
/// its row, so a NaN distance is always flagged: [`GarError::NaN`].
fn greedy_min_diameter_mean(
    gradients: &[Vector],
    dist2: &[f64],
    n: usize,
    m: usize,
    order: &mut Vec<usize>,
    candidate: &mut Vector,
    out: &mut Vector,
) -> Result<(), GarError> {
    let mut best_diam: Option<f64> = None;
    let mut nan = false;
    for anchor in 0..n {
        order.clear();
        order.extend(0..n);
        order.sort_by(|&a, &b| {
            stats::cmp_flagging_nan(dist2[anchor * n + a], dist2[anchor * n + b], &mut nan)
                .then_with(|| {
                    if lex_less(&gradients[a], &gradients[b]) {
                        std::cmp::Ordering::Less
                    } else if lex_less(&gradients[b], &gradients[a]) {
                        std::cmp::Ordering::Greater
                    } else {
                        std::cmp::Ordering::Equal
                    }
                })
        });
        if nan {
            return Err(GarError::NaN);
        }
        let subset = &order[..m];
        let diam = subset_diameter(dist2, n, subset);
        match best_diam {
            None => {
                best_diam = Some(diam);
                mean_indexed_into(gradients, subset, out);
            }
            Some(d) if diam < d => {
                best_diam = Some(diam);
                mean_indexed_into(gradients, subset, out);
            }
            Some(d) if diam == d => {
                mean_indexed_into(gradients, subset, candidate);
                if lex_less(candidate, out) {
                    std::mem::swap(candidate, out);
                }
            }
            Some(_) => {}
        }
    }
    Ok(())
}

impl Gar for Mda {
    fn name(&self) -> &'static str {
        "mda"
    }

    fn aggregate_into(
        &self,
        gradients: &[Vector],
        f: usize,
        scratch: &mut GarScratch,
        out: &mut Vector,
    ) -> Result<(), GarError> {
        // lint:begin(zero-copy)
        check_input(gradients)?;
        let n = gradients.len();
        check_tolerance(n, f)?;
        if f == 0 {
            return Vector::mean_into(gradients, out).map_err(|_| GarError::Empty);
        }
        let m = n - f;
        scratch.set_active_full(n);
        scratch.fill_dist2_active(gradients);
        let GarScratch {
            ref dist2,
            ref mut combo,
            ref mut scores,
            ref mut order,
            ref mut vec_a,
            ..
        } = *scratch;
        if !Self::is_exact(n, f) {
            return greedy_min_diameter_mean(gradients, dist2, n, m, order, vec_a, out);
        }
        // The pruned search skips pairs it can rule out, so a NaN
        // distance is flagged before it starts.
        if dist2.iter().any(|d| d.is_nan()) {
            return Err(GarError::NaN);
        }
        exact_min_diameter_mean(gradients, dist2, n, m, combo, scores, vec_a, out);
        Ok(())
        // lint:end(zero-copy)
    }

    fn kappa(&self, n: usize, f: usize) -> Option<f64> {
        if f == 0 || check_tolerance(n, f).is_err() {
            return None;
        }
        Some((n - f) as f64 / (8f64.sqrt() * f as f64))
    }

    fn max_byzantine(&self, n: usize) -> usize {
        n.saturating_sub(1) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbyz_tensor::Prng;

    #[test]
    fn excludes_byzantine_cluster() {
        // 6 honest near 0, 5 Byzantine near 100 (the paper's n=11, f=5).
        let mut rng = Prng::seed_from_u64(1);
        let mut grads: Vec<Vector> = (0..6).map(|_| rng.normal_vector(2, 0.1)).collect();
        for _ in 0..5 {
            grads.push(&Vector::filled(2, 100.0) + &rng.normal_vector(2, 0.1));
        }
        let out = Mda::new().aggregate(&grads, 5).unwrap();
        assert!(out.l2_norm() < 1.0, "norm {}", out.l2_norm());
    }

    #[test]
    fn output_is_subset_mean() {
        // With an obvious outlier, MDA must equal the mean of the rest.
        let grads = vec![
            Vector::from(vec![1.0]),
            Vector::from(vec![2.0]),
            Vector::from(vec![3.0]),
            Vector::from(vec![1000.0]),
        ];
        let out = Mda::new().aggregate(&grads, 1).unwrap();
        assert!((out[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn f_zero_is_plain_mean() {
        let grads = vec![Vector::from(vec![1.0]), Vector::from(vec![5.0])];
        let out = Mda::new().aggregate(&grads, 0).unwrap();
        assert_eq!(out[0], 3.0);
    }

    #[test]
    fn tolerance_is_minority() {
        let grads = vec![Vector::zeros(1); 11];
        assert!(Mda::new().aggregate(&grads, 5).is_ok());
        assert!(matches!(
            Mda::new().aggregate(&grads, 6),
            Err(GarError::TooManyByzantine { max: 5, .. })
        ));
    }

    #[test]
    fn kappa_matches_formula() {
        // n = 11, f = 5: κ = 6/(√8·5).
        let k = Mda::new().kappa(11, 5).unwrap();
        assert!((k - 6.0 / (8f64.sqrt() * 5.0)).abs() < 1e-12);
        assert!(Mda::new().kappa(11, 0).is_none());
        assert!(Mda::new().kappa(11, 6).is_none());
    }

    #[test]
    fn exact_and_greedy_agree_on_clear_separation() {
        // When honest/Byzantine clusters are well separated, the greedy
        // heuristic must find the same subset mean as exhaustive search.
        let mut rng = Prng::seed_from_u64(2);
        let mut grads: Vec<Vector> = (0..8).map(|_| rng.normal_vector(3, 0.05)).collect();
        for _ in 0..4 {
            grads.push(&Vector::filled(3, 50.0) + &rng.normal_vector(3, 0.05));
        }
        let n = grads.len();
        let m = n - 4;
        let dist2 = distance_table(&grads);
        let (mut combo, mut diams, mut order) = (Vec::new(), Vec::new(), Vec::new());
        let (mut scratch, mut exact, mut greedy) =
            (Vector::default(), Vector::default(), Vector::default());
        exact_min_diameter_mean(
            &grads,
            &dist2,
            n,
            m,
            &mut combo,
            &mut diams,
            &mut scratch,
            &mut exact,
        );
        greedy_min_diameter_mean(&grads, &dist2, n, m, &mut order, &mut scratch, &mut greedy)
            .unwrap();
        assert!(exact.approx_eq(&greedy, 1e-12));
        // And the chosen subset is the honest cluster.
        let honest_mean = Vector::mean(&grads[..8]).unwrap();
        assert!(exact.approx_eq(&honest_mean, 1e-12));
    }

    #[test]
    fn nan_distances_are_flagged_on_both_paths() {
        // Two infinite gradients are a NaN apart, and a NaN coordinate
        // makes every distance of its gradient NaN. Both sit at the end,
        // where the exact search's pruning could skip their pair.
        let mut rng = Prng::seed_from_u64(5);
        for (n, f) in [(7, 2), (25, 12)] {
            assert_eq!(Mda::is_exact(n, f), n == 7);
            let mut grads: Vec<Vector> = (0..n).map(|_| rng.normal_vector(3, 1.0)).collect();
            for poison in [f64::INFINITY, f64::NAN] {
                grads[n - 2] = Vector::filled(3, poison);
                grads[n - 1] = Vector::filled(3, poison);
                assert_eq!(
                    Mda::new().aggregate(&grads, f),
                    Err(GarError::NaN),
                    "n = {n}"
                );
            }
        }
    }

    #[test]
    fn greedy_output_stays_in_honest_hull_on_random_input() {
        // The greedy mean must stay within the coordinate envelope of the
        // inputs (it is a subset mean by construction).
        let mut rng = Prng::seed_from_u64(3);
        let (mut order, mut scratch) = (Vec::new(), Vector::default());
        for _ in 0..30 {
            let grads: Vec<Vector> = (0..10).map(|_| rng.normal_vector(2, 1.0)).collect();
            let dist2 = distance_table(&grads);
            let mut mean = Vector::default();
            greedy_min_diameter_mean(&grads, &dist2, 10, 6, &mut order, &mut scratch, &mut mean)
                .unwrap();
            for j in 0..2 {
                let lo = grads.iter().map(|g| g[j]).fold(f64::INFINITY, f64::min);
                let hi = grads.iter().map(|g| g[j]).fold(f64::NEG_INFINITY, f64::max);
                assert!(mean[j] >= lo && mean[j] <= hi);
            }
        }
    }

    /// The pruned search on `grads` (through the scratch hot path) must
    /// equal the flat enumeration bit for bit.
    fn assert_pruned_matches_flat(grads: &[Vector], f: usize, case: &str) {
        let n = grads.len();
        let dist2 = distance_table(grads);
        let (mut combo, mut candidate, mut flat) =
            (Vec::new(), Vector::default(), Vector::default());
        exact_min_diameter_mean_flat(
            grads,
            &dist2,
            n,
            n - f,
            &mut combo,
            &mut candidate,
            &mut flat,
        );
        let mut pruned = Vector::default();
        Mda::new()
            .aggregate_into(grads, f, &mut GarScratch::new(), &mut pruned)
            .unwrap();
        let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&pruned), bits(&flat), "{case}: n = {n}, f = {f}");
    }

    #[test]
    fn pruned_search_matches_flat_enumeration_bitwise() {
        let mut rng = Prng::seed_from_u64(4);
        for n in 3..=13 {
            for f in (1..=(n - 1) / 2).filter(|&f| Mda::is_exact(n, f)) {
                for _ in 0..4 {
                    let random: Vec<Vector> = (0..n).map(|_| rng.normal_vector(3, 1.0)).collect();
                    assert_pruned_matches_flat(&random, f, "random");

                    // ALIE: the f Byzantine workers submit one shared vector.
                    let mut alie: Vec<Vector> =
                        (0..n - f).map(|_| rng.normal_vector(3, 1.0)).collect();
                    let forged = rng.normal_vector(3, 0.5);
                    alie.extend(std::iter::repeat_n(forged, f));
                    assert_pruned_matches_flat(&alie, f, "alie");

                    // Small-integer coordinates: many subsets share a diameter.
                    let grid: Vec<Vector> = (0..n)
                        .map(|_| {
                            let v: Vec<f64> =
                                (0..2).map(|_| (rng.uniform() * 3.0).floor()).collect();
                            Vector::from(v)
                        })
                        .collect();
                    assert_pruned_matches_flat(&grid, f, "grid");
                }
                let same = vec![Vector::from(vec![0.25, -1.5]); n];
                assert_pruned_matches_flat(&same, f, "identical");
            }
        }
    }

    #[test]
    fn diameter_tie_picks_lex_smallest_mean_even_when_found_later() {
        // {2, 1} and {1, 0} both have diameter 1; the later subset in
        // enumeration order, {1, 0}, has the smaller mean and must win.
        let grads = vec![
            Vector::from(vec![2.0]),
            Vector::from(vec![1.0]),
            Vector::from(vec![0.0]),
        ];
        let out = Mda::new().aggregate(&grads, 1).unwrap();
        assert_eq!(out[0], 0.5);
        assert_pruned_matches_flat(&grads, 1, "tie");
    }

    #[test]
    fn exactness_predicate() {
        assert!(Mda::is_exact(11, 5)); // C(11,6) = 462
        assert!(!Mda::is_exact(60, 25)); // astronomically many subsets
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(11, 6), 462);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 6), 0);
    }
}
