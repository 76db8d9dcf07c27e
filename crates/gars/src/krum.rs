//! Krum and Multi-Krum (Blanchard et al., NeurIPS 2017).

use crate::scratch::mean_indexed_into;
use crate::{check_input, Gar, GarError, GarScratch};
use dpbyz_tensor::{stats, Vector};
use std::cmp::Ordering;

/// The Krum score of every gradient: the sum of squared distances to its
/// `n − f − 2` nearest neighbours (excluding itself). Allocating
/// convenience wrapper over [`GarScratch::compute_krum_scores`], kept for
/// tests.
#[cfg(test)]
pub(crate) fn krum_scores(gradients: &[Vector], f: usize) -> Vec<f64> {
    let mut scratch = GarScratch::new();
    scratch.set_active_full(gradients.len());
    scratch.compute_krum_scores(gradients, f).unwrap();
    std::mem::take(&mut scratch.scores)
}

/// Position (into `members`) of the minimal score, breaking exact ties by
/// lexicographic comparison of the gradient coordinates so the result is
/// independent of submission order. Ties are structural, not exotic: with
/// `k = 1` neighbour (the smallest tolerated pool), two mutually-nearest
/// gradients share the same score — their mutual distance.
///
/// # Errors
///
/// [`GarError::NaN`] if a score is NaN.
pub(crate) fn canonical_argmin_indexed(
    scores: &[f64],
    gradients: &[Vector],
    members: &[usize],
) -> Result<usize, GarError> {
    let mut best = 0;
    let mut nan = false;
    for i in 1..scores.len() {
        let ord = stats::cmp_flagging_nan(scores[i], scores[best], &mut nan);
        if ord == Ordering::Less
            || (ord == Ordering::Equal
                && lex_less(&gradients[members[i]], &gradients[members[best]]))
        {
            best = i;
        }
    }
    if nan {
        return Err(GarError::NaN);
    }
    Ok(best)
}

/// Lexicographic strict order on coordinates.
pub(crate) fn lex_less(a: &Vector, b: &Vector) -> bool {
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

/// Requires `n ≥ 2f + 3` (so that `n − 2f − 2 ≥ 1`).
fn check_tolerance(n: usize, f: usize) -> Result<(), GarError> {
    if n < 2 * f + 3 {
        return Err(GarError::TooManyByzantine {
            n,
            f,
            max: n.saturating_sub(3) / 2,
        });
    }
    Ok(())
}

/// `η(n, f) = n − f + (f(n−f−2) + f²(n−f−1)) / (n − 2f − 2)` — the constant
/// in Krum's (and Bulyan's) VN bound `κ = 1/√(2η)`.
pub(crate) fn eta(n: usize, f: usize) -> f64 {
    let (nf, ff) = (n as f64, f as f64);
    nf - ff + (ff * (nf - ff - 2.0) + ff * ff * (nf - ff - 1.0)) / (nf - 2.0 * ff - 2.0)
}

/// Krum: selects the single gradient with the smallest Krum score.
///
/// # Example
///
/// ```
/// use dpbyz_gars::{Gar, Krum};
/// use dpbyz_tensor::Vector;
///
/// let grads: Vec<Vector> = (0..7)
///     .map(|i| Vector::from(vec![i as f64 * 0.01]))
///     .chain(std::iter::once(Vector::from(vec![1000.0])))
///     .collect();
/// let out = Krum::new().aggregate(&grads, 2).unwrap();
/// assert!(out[0] < 1.0); // the outlier is never selected
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Krum;

impl Krum {
    /// Creates the rule.
    pub fn new() -> Self {
        Krum
    }
}

impl Gar for Krum {
    fn name(&self) -> &'static str {
        "krum"
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
        check_tolerance(gradients.len(), f)?;
        scratch.set_active_full(gradients.len());
        scratch.compute_krum_scores(gradients, f)?;
        let best = canonical_argmin_indexed(&scratch.scores, gradients, &scratch.active)?;
        out.copy_from(&gradients[scratch.active[best]]);
        Ok(())
        // lint:end(zero-copy)
    }

    fn kappa(&self, n: usize, f: usize) -> Option<f64> {
        if f == 0 || check_tolerance(n, f).is_err() {
            return None;
        }
        Some(1.0 / (2.0 * eta(n, f)).sqrt())
    }

    fn max_byzantine(&self, n: usize) -> usize {
        n.saturating_sub(3) / 2
    }
}

/// Multi-Krum: averages the `m` gradients with the smallest Krum scores
/// (`m = n − f` here, the usual choice).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MultiKrum;

impl MultiKrum {
    /// Creates the rule.
    pub fn new() -> Self {
        MultiKrum
    }
}

impl Gar for MultiKrum {
    fn name(&self) -> &'static str {
        "multi-krum"
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
        check_tolerance(gradients.len(), f)?;
        let n = gradients.len();
        let m = n - f;
        scratch.set_active_full(n);
        scratch.compute_krum_scores(gradients, f)?;
        let GarScratch {
            ref scores,
            ref mut order,
            ..
        } = *scratch;
        order.clear();
        order.extend(0..n);
        let mut nan = false;
        order.sort_by(|&a, &b| {
            stats::cmp_flagging_nan(scores[a], scores[b], &mut nan).then_with(|| {
                if lex_less(&gradients[a], &gradients[b]) {
                    Ordering::Less
                } else if lex_less(&gradients[b], &gradients[a]) {
                    Ordering::Greater
                } else {
                    Ordering::Equal
                }
            })
        });
        if nan {
            return Err(GarError::NaN);
        }
        mean_indexed_into(gradients, &order[..m], out);
        Ok(())
        // lint:end(zero-copy)
    }

    fn kappa(&self, n: usize, f: usize) -> Option<f64> {
        Krum.kappa(n, f)
    }

    fn max_byzantine(&self, n: usize) -> usize {
        Krum.max_byzantine(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbyz_tensor::Prng;

    fn honest_cluster(rng: &mut Prng, n: usize, dim: usize) -> Vec<Vector> {
        (0..n).map(|_| rng.normal_vector(dim, 0.1)).collect()
    }

    #[test]
    fn output_is_one_of_the_inputs() {
        let mut rng = Prng::seed_from_u64(1);
        let grads = honest_cluster(&mut rng, 9, 3);
        let out = Krum::new().aggregate(&grads, 2).unwrap();
        assert!(grads.iter().any(|g| g == &out));
    }

    #[test]
    fn never_selects_far_outlier() {
        let mut rng = Prng::seed_from_u64(2);
        for _ in 0..20 {
            let mut grads = honest_cluster(&mut rng, 7, 3);
            grads.push(Vector::filled(3, 500.0));
            grads.push(Vector::filled(3, -500.0));
            let out = Krum::new().aggregate(&grads, 2).unwrap();
            assert!(out.l2_norm() < 5.0);
        }
    }

    #[test]
    fn tolerance_boundary() {
        // n = 2f + 3 is the minimum.
        let grads = vec![Vector::zeros(1); 7];
        assert!(Krum::new().aggregate(&grads, 2).is_ok());
        assert!(matches!(
            Krum::new().aggregate(&grads, 3),
            Err(GarError::TooManyByzantine { .. })
        ));
        assert_eq!(Krum::new().max_byzantine(7), 2);
        assert_eq!(Krum::new().max_byzantine(11), 4);
    }

    #[test]
    fn eta_matches_hand_computation() {
        // n = 11, f = 3: η = 8 + (3·6 + 9·7)/3 = 8 + 27 = 35.
        assert!((eta(11, 3) - 35.0).abs() < 1e-12);
        let k = Krum::new().kappa(11, 3).unwrap();
        assert!((k - 1.0 / 70f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn kappa_none_for_zero_or_excess_f() {
        assert!(Krum::new().kappa(11, 0).is_none());
        assert!(Krum::new().kappa(11, 5).is_none());
        assert!(Krum::new().kappa(11, 4).is_some());
    }

    #[test]
    fn multi_krum_averages_good_subset() {
        let mut rng = Prng::seed_from_u64(3);
        let mut grads = honest_cluster(&mut rng, 9, 2);
        grads.push(Vector::filled(2, 100.0));
        let out = MultiKrum::new().aggregate(&grads, 1).unwrap();
        assert!(out.l2_norm() < 12.0, "norm {}", out.l2_norm());
        // Multi-Krum output is generally NOT one of the inputs.
        assert_eq!(MultiKrum::new().name(), "multi-krum");
    }

    #[test]
    fn multi_krum_equals_mean_without_byzantine_room() {
        // With f = 0, m = n, Multi-Krum averages everything.
        let grads = vec![
            Vector::from(vec![1.0]),
            Vector::from(vec![2.0]),
            Vector::from(vec![3.0]),
        ];
        let out = MultiKrum::new().aggregate(&grads, 0).unwrap();
        assert!((out[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn krum_scores_prefer_cluster_center() {
        // Tight cluster at 0 plus one point at 10: the cluster points must
        // all score lower than the outlier.
        let mut grads = vec![
            Vector::from(vec![0.0]),
            Vector::from(vec![0.1]),
            Vector::from(vec![-0.1]),
            Vector::from(vec![0.05]),
            Vector::from(vec![-0.05]),
            Vector::from(vec![0.02]),
        ];
        grads.push(Vector::from(vec![10.0]));
        let scores = krum_scores(&grads, 2);
        let outlier_score = scores[6];
        for s in &scores[..6] {
            assert!(*s < outlier_score);
        }
    }
}
