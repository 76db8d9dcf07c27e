//! Equivalence suite for the zero-copy hot path: every `_into`/in-place
//! kernel must match its allocating counterpart **bit for bit**, with the
//! scratch state deliberately reused (dirty) across calls — exactly how
//! the round engine drives it.

use dpbyz::attacks::{
    Attack, AttackContext, FallOfEmpires, InnerProductManipulation, LargeNorm, LittleIsEnough,
    Mimic, RandomNoise, Rescaling, SignFlip, Zero,
};
use dpbyz::dp::{GaussianMechanism, LaplaceMechanism, Mechanism, NoNoise};
use dpbyz::gars::{Gar, GarScratch};
use dpbyz::tensor::{Prng, Vector};
use dpbyz::{build_gar, gar_ids, ComponentSpec};
use proptest::prelude::*;
use std::sync::Arc;

fn bits_equal(a: &Vector, b: &Vector) -> bool {
    a.dim() == b.dim()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Every registered rule at its registry defaults, in id order.
fn all_gars() -> Vec<Arc<dyn Gar>> {
    gar_ids()
        .iter()
        .map(|id| build_gar(&ComponentSpec::new(id.as_str())).unwrap())
        .collect()
}

fn random_gradients(seed: u64, n: usize, dim: usize) -> Vec<Vector> {
    let mut rng = Prng::seed_from_u64(seed);
    (0..n).map(|_| rng.normal_vector(dim, 1.0)).collect()
}

/// The paper-topology `f` each rule is exercised at: its own declared
/// tolerance at n = 11, capped at the protocol's f = 5 — computed from
/// the rule itself so newly added GARs are automatically tested at a
/// valid Byzantine count.
fn tolerated_f(gar: &dyn Gar) -> usize {
    gar.max_byzantine(11).min(5)
}

#[test]
fn aggregate_into_matches_aggregate_for_every_gar_with_dirty_scratch() {
    // One scratch and one output buffer REUSED across every rule and every
    // round — the server's usage pattern. Any state leaking between calls
    // would break the bitwise match.
    let mut scratch = GarScratch::new();
    let mut out = Vector::from(vec![99.0; 3]);
    for round in 0..8u64 {
        let grads = random_gradients(round, 11, 17);
        for gar in all_gars() {
            let f = tolerated_f(gar.as_ref());
            let allocating = gar.aggregate(&grads, f).unwrap();
            gar.aggregate_into(&grads, f, &mut scratch, &mut out)
                .unwrap();
            assert!(
                bits_equal(&allocating, &out),
                "{} diverged on round {round}",
                gar.name()
            );
        }
    }
}

#[test]
fn parallel_aggregation_is_bit_identical_to_serial_for_every_gar() {
    // The intra-round parallel path must be bit-identical to serial at any
    // pool size. One scratch per pool size, REUSED dirty across every rule
    // and round, with the serial reference computed on a separate dirty
    // scratch — the exact server usage pattern plus the parallel knob.
    let mut serial = GarScratch::new();
    let mut out_serial = Vector::from(vec![-3.0; 2]);
    for &threads in &[2usize, 8] {
        let mut parallel = GarScratch::new();
        parallel.set_parallelism(threads);
        let mut out_parallel = Vector::from(vec![42.0; 7]);
        for round in 0..4u64 {
            let grads = random_gradients(round, 11, 33);
            for gar in all_gars() {
                let f = tolerated_f(gar.as_ref());
                gar.aggregate_into(&grads, f, &mut serial, &mut out_serial)
                    .unwrap();
                gar.aggregate_into(&grads, f, &mut parallel, &mut out_parallel)
                    .unwrap();
                assert!(
                    bits_equal(&out_serial, &out_parallel),
                    "{} diverged at {threads} threads on round {round}",
                    gar.name()
                );
            }
        }
    }
}

#[test]
fn switching_pool_size_on_one_scratch_preserves_results() {
    // The server owns ONE scratch; resizing its pool mid-life (1 → 8 → 2
    // → 1) must never change an aggregation result. Also exercises thread
    // reclamation on shrink.
    let grads = random_gradients(11, 11, 65);
    let mut scratch = GarScratch::new();
    let mut out = Vector::default();
    let mut reference: Vec<Vector> = Vec::new();
    for gar in all_gars() {
        let f = tolerated_f(gar.as_ref());
        gar.aggregate_into(&grads, f, &mut scratch, &mut out)
            .unwrap();
        reference.push(out.clone());
    }
    for &threads in &[8usize, 2, 1] {
        scratch.set_parallelism(threads);
        for (gar, expected) in all_gars().iter().zip(&reference) {
            let f = tolerated_f(gar.as_ref());
            gar.aggregate_into(&grads, f, &mut scratch, &mut out)
                .unwrap();
            assert!(
                bits_equal(expected, &out),
                "{} diverged after resizing the pool to {threads}",
                gar.name()
            );
        }
    }
}

#[test]
fn aggregate_into_matches_on_adversarial_inputs() {
    // Duplicated vectors, exact ties, extreme outliers: the tie-breaking
    // paths must agree too.
    let mut base = random_gradients(7, 5, 4);
    base.push(base[0].clone()); // exact duplicate
    base.push(base[1].clone());
    base.push(Vector::filled(4, 1e9)); // far outlier
    base.push(Vector::filled(4, -1e9));
    base.push(Vector::zeros(4));
    base.push(Vector::zeros(4)); // duplicate zero
    let mut scratch = GarScratch::new();
    let mut out = Vector::default();
    for gar in all_gars() {
        let f = tolerated_f(gar.as_ref());
        let allocating = gar.aggregate(&base, f).unwrap();
        gar.aggregate_into(&base, f, &mut scratch, &mut out)
            .unwrap();
        assert!(bits_equal(&allocating, &out), "{} diverged", gar.name());
    }
}

#[test]
fn aggregate_into_error_contract_matches_aggregate() {
    let mut scratch = GarScratch::new();
    let mut out = Vector::default();
    for gar in all_gars() {
        // Empty input.
        assert_eq!(
            gar.aggregate(&[], 0).unwrap_err(),
            gar.aggregate_into(&[], 0, &mut scratch, &mut out)
                .unwrap_err(),
            "{}: empty-input errors differ",
            gar.name()
        );
        // Ragged input.
        let ragged = vec![Vector::zeros(2), Vector::zeros(3)];
        assert_eq!(
            gar.aggregate(&ragged, 0).unwrap_err(),
            gar.aggregate_into(&ragged, 0, &mut scratch, &mut out)
                .unwrap_err(),
            "{}: ragged-input errors differ",
            gar.name()
        );
        // Intolerable f.
        let grads = vec![Vector::zeros(1); 5];
        let too_many = 3;
        assert_eq!(
            gar.aggregate(&grads, too_many).unwrap_err(),
            gar.aggregate_into(&grads, too_many, &mut scratch, &mut out)
                .unwrap_err(),
            "{}: tolerance errors differ",
            gar.name()
        );
    }
}

#[test]
fn default_aggregate_delegates_to_aggregate_into() {
    // An out-of-tree GAR that only implements `aggregate_into` must get
    // the provided `aggregate` for free, bit-identically.
    struct FirstVector;
    impl Gar for FirstVector {
        fn name(&self) -> &'static str {
            "first-vector"
        }
        fn aggregate_into(
            &self,
            gradients: &[Vector],
            _f: usize,
            _scratch: &mut GarScratch,
            out: &mut Vector,
        ) -> Result<(), dpbyz::gars::GarError> {
            out.copy_from(gradients.first().ok_or(dpbyz::gars::GarError::Empty)?);
            Ok(())
        }
        fn kappa(&self, _n: usize, _f: usize) -> Option<f64> {
            None
        }
        fn max_byzantine(&self, _n: usize) -> usize {
            0
        }
    }
    let grads = random_gradients(3, 4, 6);
    let out = FirstVector.aggregate(&grads, 0).unwrap();
    assert!(bits_equal(&grads[0], &out));
    assert!(matches!(
        FirstVector.aggregate(&[], 0),
        Err(dpbyz::gars::GarError::Empty)
    ));
}

proptest! {
    #[test]
    fn prop_aggregate_into_equivalence(seed in 0u64..500, dim in 1usize..24) {
        let grads = random_gradients(seed, 11, dim);
        let mut scratch = GarScratch::new();
        let mut out = Vector::default();
        for gar in all_gars() {
            let f = tolerated_f(gar.as_ref());
            let allocating = gar.aggregate(&grads, f).unwrap();
            gar.aggregate_into(&grads, f, &mut scratch, &mut out).unwrap();
            prop_assert!(
                bits_equal(&allocating, &out),
                "{} diverged at seed {seed}, dim {dim}", gar.name()
            );
        }
    }

    #[test]
    fn prop_perturb_in_place_equivalence(seed in 0u64..500, dim in 1usize..48) {
        let mechanisms: Vec<Box<dyn Mechanism>> = vec![
            Box::new(NoNoise),
            Box::new(GaussianMechanism::with_sigma(0.3).unwrap()),
            Box::new(LaplaceMechanism::calibrate(0.7, 1.0).unwrap()),
        ];
        let g = Prng::seed_from_u64(seed).normal_vector(dim, 2.0);
        for m in &mechanisms {
            let allocating = m.perturb(&g, &mut Prng::seed_from_u64(seed ^ 0xABCD));
            let mut in_place = g.clone();
            m.perturb_in_place(&mut in_place, &mut Prng::seed_from_u64(seed ^ 0xABCD));
            prop_assert!(
                bits_equal(&allocating, &in_place),
                "{} diverged at seed {seed}, dim {dim}", m.name()
            );
        }
    }

    #[test]
    fn prop_forge_into_equivalence(seed in 0u64..500, n in 1usize..8, dim in 1usize..16) {
        let honest = random_gradients(seed, n, dim);
        let ctx = AttackContext::new(&honest, seed as usize);
        let attacks: Vec<Box<dyn Attack>> = vec![
            Box::new(LittleIsEnough::default()),
            Box::new(FallOfEmpires::default()),
            Box::new(SignFlip),
            Box::new(RandomNoise::new(1.3)),
            Box::new(Zero),
            Box::new(LargeNorm::default()),
            Box::new(Mimic::new(seed as usize)),
            Box::new(InnerProductManipulation::default()),
            Box::new(Rescaling::default()),
        ];
        let mut out = Vector::from(vec![-1.0; 2]); // dirty buffer, reused
        for attack in &attacks {
            let allocating = attack.forge(&ctx, &mut Prng::seed_from_u64(seed));
            attack.forge_into(&ctx, &mut Prng::seed_from_u64(seed), &mut out);
            prop_assert!(
                bits_equal(&allocating, &out),
                "{} diverged at seed {seed}", attack.name()
            );
        }
    }

    #[test]
    fn prop_vector_kernel_equivalence(seed in 0u64..500, n in 1usize..10, dim in 1usize..32) {
        let vs = random_gradients(seed, n, dim);
        // mean_into vs mean.
        let mut out = Vector::from(vec![3.25; 5]);
        Vector::mean_into(&vs, &mut out).unwrap();
        prop_assert!(bits_equal(&Vector::mean(&vs).unwrap(), &out));
        // sub_into vs operator.
        if n >= 2 {
            let mut diff = Vector::default();
            vs[0].sub_into(&vs[1], &mut diff);
            prop_assert!(bits_equal(&(&vs[0] - &vs[1]), &diff));
        }
        // copy_from round-trip and fill.
        let mut buf = Vector::zeros(1);
        buf.copy_from(&vs[0]);
        prop_assert!(bits_equal(&vs[0], &buf));
        buf.fill(0.0);
        prop_assert!(bits_equal(&Vector::zeros(dim), &buf));
        // squared_distance alias.
        if n >= 2 {
            prop_assert_eq!(
                vs[0].squared_distance(&vs[1]).to_bits(),
                vs[0].l2_distance_squared(&vs[1]).to_bits()
            );
        }
    }

    #[test]
    fn prop_hadamard_into_and_map_in_place_equivalence(
        seed in 0u64..500,
        dim in 1usize..48,
    ) {
        // The last two formerly allocating-only Vector kernels: the
        // in-place variants must match their allocating counterparts bit
        // for bit, with dirty reused output buffers (the engine's usage
        // pattern).
        let vs = random_gradients(seed, 2, dim);
        let mut out = Vector::from(vec![7.5; 3]); // dirty, wrong dim
        vs[0].hadamard_into(&vs[1], &mut out);
        prop_assert!(bits_equal(&vs[0].hadamard(&vs[1]), &out));
        // Reuse the SAME buffer again (capacity now warm).
        vs[1].hadamard_into(&vs[0], &mut out);
        prop_assert!(bits_equal(&vs[1].hadamard(&vs[0]), &out));

        let f = |x: f64| (x * 1.7 - 0.25).abs().sqrt();
        let mut in_place = vs[0].clone();
        in_place.map_in_place(f);
        prop_assert!(bits_equal(&vs[0].map(f), &in_place));
    }

    #[test]
    #[allow(clippy::redundant_clone)]
    fn prop_hadamard_into_dimension_contract(seed in 0u64..100, dim in 1usize..16) {
        // Same panic contract as the allocating hadamard: mismatched
        // dimensions are a programming error. (Checked via catch_unwind
        // so the proptest harness sees a clean assertion.)
        let vs = random_gradients(seed, 2, dim);
        let short = Vector::zeros(dim + 1);
        let result = std::panic::catch_unwind(|| {
            let mut out = Vector::default();
            vs[0].hadamard_into(&short, &mut out);
        });
        prop_assert!(result.is_err());
    }
}
