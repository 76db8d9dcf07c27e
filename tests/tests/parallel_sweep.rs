//! Determinism suite for the parallel sweep executor: histories produced
//! by `SweepBuilder` / `Experiment::run_seeds_parallel` must be
//! **bit-identical** to the serial `run_seeds` loop — on both paths of
//! the in-process engine (workers inline, or leased to the engine's own
//! threads at large per-worker work) and across pool sizes 1, 2, and 8.
//!
//! `RunHistory`'s `PartialEq` compares float *bit patterns* (see
//! `dpbyz-server`), so equality here is the strongest claim available:
//! the executor adds no nondeterminism whatsoever.

use dpbyz::prelude::*;
use std::sync::{Arc, Mutex};

const POOL_SIZES: [usize; 3] = [1, 2, 8];
const SEEDS: [u64; 4] = [1, 2, 3, 4];

/// A DP + attacked cell: exercises the attack and noise RNG streams, the
/// parts most sensitive to ordering bugs.
fn attacked_experiment() -> Experiment {
    attacked_builder().build().unwrap()
}

fn attacked_builder() -> ExperimentBuilder {
    Experiment::builder()
        .steps(6)
        .dataset_size(250)
        .gar("mda")
        .attack("alie")
        .epsilon(0.2)
}

/// A batch size at which a pool thread claims honest workers beside the
/// driving thread while a core is free: the paper's b = 50, whose
/// b·d = 50 × 69 = 3 450 is above the engine's cutoff (1 000).
const LEASED_BATCH: usize = 50;

/// A batch size at which every worker runs inline: b·d = 10 × 69 = 690
/// is below the cutoff.
const INLINE_BATCH: usize = 10;

#[test]
fn run_seeds_parallel_matches_serial_on_sequential_engine() {
    let exp = attacked_experiment();
    let serial = exp.run_seeds(&SEEDS).unwrap();
    for pool in POOL_SIZES {
        let parallel = exp.run_seeds_parallel(&SEEDS, Some(pool)).unwrap();
        assert_eq!(serial, parallel, "pool size {pool}");
    }
    // Auto-sized pool too.
    assert_eq!(serial, exp.run_seeds_parallel(&SEEDS, None).unwrap());
}

#[test]
fn run_seeds_parallel_matches_serial_with_leased_workers() {
    // The serial loop leases; the parallel jobs lease only in rounds
    // where fewer jobs run than there are cores.
    let exp = attacked_builder().batch_size(LEASED_BATCH).build().unwrap();
    let serial = exp.run_seeds(&SEEDS).unwrap();
    for pool in POOL_SIZES {
        let parallel = exp.run_seeds_parallel(&SEEDS, Some(pool)).unwrap();
        assert_eq!(serial, parallel, "pool size {pool} (leased workers)");
    }
}

#[test]
fn sweep_grid_is_bit_identical_to_serial_loops_at_every_pool_size() {
    let grid = |pool: usize| {
        SweepBuilder::over(
            Experiment::builder()
                .steps(5)
                .dataset_size(250)
                .gar("mda")
                .attack("alie"),
        )
        .with_no_dp()
        .epsilons(&[0.2])
        .batch_sizes(&[10, 25])
        .seeds(&SEEDS)
        .pool_size(pool)
        .run()
        .unwrap()
    };
    // Serial reference: the exact loops the bench binaries used to run.
    let reference = grid(1);
    assert_eq!(reference.cells.len(), 4);
    for run in &reference.cells {
        let serial = run.experiment.run_seeds(&SEEDS).unwrap();
        assert_eq!(run.histories, serial, "cell {}", run.label);
    }
    for pool in [2, 8] {
        let parallel = grid(pool);
        for (a, b) in reference.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.histories, b.histories, "pool {pool}, cell {}", a.label);
        }
    }
}

#[test]
fn zero_copy_engine_is_bit_identical_across_gars_engines_and_pool_sizes() {
    // Determinism gate for the buffer-reusing round engine: cells chosen
    // to exercise every scratch path (mean_into, the shared Krum distance
    // matrix, Bulyan's index-based selection, MDA's subset search, the
    // coordinate statistics) plus the in-place Gaussian mechanism and
    // forged-vector reuse, serial and pools 1/2/8.
    let cells: [(&str, &str, usize); 5] = [
        ("average", "", 0),
        ("krum", "alie", 2),
        ("median", "foe", 3),
        ("mda", "alie", 4),
        ("bulyan", "foe", 2),
    ];
    for (gar, attack, f) in cells {
        let mut builder = Experiment::builder()
            .steps(5)
            .dataset_size(250)
            .gar(gar)
            .byzantine(f)
            .epsilon(0.3);
        if !attack.is_empty() {
            builder = builder.attack(attack);
        }
        let exp = builder.build().unwrap();
        let serial = exp.run_seeds(&SEEDS).unwrap();
        for pool in POOL_SIZES {
            let parallel = exp.run_seeds_parallel(&SEEDS, Some(pool)).unwrap();
            assert_eq!(serial, parallel, "{gar}/{attack}: pool {pool}");
        }
    }
}

#[test]
fn agg_threads_keeps_histories_bit_identical_on_both_paths() {
    // The intra-round aggregation pool (`agg_threads`) is the orthogonal
    // parallel axis: it shards the GAR's coordinate/candidate loops
    // *inside* a round. Any thread count must reproduce the serial
    // history bit for bit, with the workers inline (b = INLINE_BATCH) or
    // leased (b = LEASED_BATCH) — cells pick rules from the sharded
    // coordinate family and the Krum family.
    let cells: [(&str, &str, usize); 3] = [
        ("median", "sign-flip", 3),
        ("krum", "alie", 2),
        ("phocas", "foe", 3),
    ];
    for (gar, attack, f) in cells {
        for batch in [INLINE_BATCH, LEASED_BATCH] {
            let build = |threads: usize| {
                Experiment::builder()
                    .steps(5)
                    .dataset_size(250)
                    .gar(gar)
                    .attack(attack)
                    .byzantine(f)
                    .epsilon(0.3)
                    .batch_size(batch)
                    .agg_threads(threads)
                    .build()
                    .unwrap()
            };
            let serial = build(1).run_seeds(&SEEDS).unwrap();
            for threads in [2usize, 8] {
                let parallel = build(threads).run_seeds(&SEEDS).unwrap();
                assert_eq!(
                    serial, parallel,
                    "{gar}/{attack}: agg_threads {threads}, batch {batch}"
                );
            }
        }
    }
}

#[test]
fn observers_stream_without_perturbing_parallel_results() {
    let exp = attacked_experiment();
    let serial = exp.run_seeds(&SEEDS).unwrap();
    let streamed = Arc::new(Mutex::new(0usize));
    let counter = streamed.clone();
    let results = SweepBuilder::new()
        .cell("only", exp)
        .seeds(&SEEDS)
        .pool_size(8)
        .observe_with(move |_job| {
            let counter = counter.clone();
            Box::new(FnObserver::new(move |_m: &StepMetrics<'_>| {
                *counter.lock().unwrap() += 1;
            }))
        })
        .run()
        .unwrap();
    assert_eq!(results.cells[0].histories, serial);
    // 4 seeds × 6 steps streamed.
    assert_eq!(*streamed.lock().unwrap(), 24);
}

#[test]
fn empty_seed_lists_error_instead_of_returning_empty() {
    let exp = attacked_experiment();
    assert!(matches!(exp.run_seeds(&[]), Err(PipelineError::Spec(_))));
    assert!(matches!(
        exp.run_seeds_parallel(&[], Some(2)),
        Err(PipelineError::Spec(_))
    ));
}
