//! Aggregation-rule throughput: every GAR across worker counts and model
//! sizes. MDA's exact subset search is the expensive one — this bench
//! documents where the greedy fallback takes over.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpbyz_core::registry::{build_gar, gar_ids};
use dpbyz_core::ComponentSpec;
use dpbyz_gars::{Gar, GarScratch, Mda};
use dpbyz_tensor::{Prng, Vector};
use std::hint::black_box;
use std::sync::Arc;

/// Every registered rule at its registry defaults, in id order.
fn all_gars() -> Vec<Arc<dyn Gar>> {
    gar_ids()
        .iter()
        .map(|id| build_gar(&ComponentSpec::new(id.as_str())).unwrap())
        .collect()
}

fn gradients(n: usize, dim: usize, seed: u64) -> Vec<Vector> {
    let mut rng = Prng::seed_from_u64(seed);
    (0..n).map(|_| rng.normal_vector(dim, 1.0)).collect()
}

fn bench_all_gars(c: &mut Criterion) {
    let mut group = c.benchmark_group("gar_aggregation_n11_d69");
    let grads = gradients(11, 69, 1);
    for gar in all_gars() {
        // Each rule's own tolerance at the paper topology, capped at the
        // protocol's f = 5, so newly added GARs bench at a valid count.
        let f = gar.max_byzantine(11).min(5);
        group.bench_function(gar.name(), |b| {
            b.iter(|| gar.aggregate(black_box(&grads), f).unwrap())
        });
    }
    group.finish();
}

/// Old vs new hot path: the allocating `aggregate` (fresh distance
/// matrices, cloned pools, fresh outputs — what the engine called before
/// the zero-copy refactor) against `aggregate_into` with a reused
/// `GarScratch` and output buffer (what it calls now).
fn bench_alloc_vs_scratch(c: &mut Criterion) {
    let mut group = c.benchmark_group("gar_alloc_vs_scratch_n11_d1000");
    let grads = gradients(11, 1_000, 4);
    let mut scratch = GarScratch::new();
    let mut out = Vector::default();
    for gar in all_gars() {
        // Each rule's own tolerance at the paper topology, capped at the
        // protocol's f = 5, so newly added GARs bench at a valid count.
        let f = gar.max_byzantine(11).min(5);
        group.bench_function(format!("{}/alloc", gar.name()), |b| {
            b.iter(|| gar.aggregate(black_box(&grads), f).unwrap())
        });
        group.bench_function(format!("{}/scratch", gar.name()), |b| {
            b.iter(|| {
                gar.aggregate_into(black_box(&grads), f, &mut scratch, &mut out)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_dimension_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("mda_dimension_scaling");
    for dim in [69usize, 1_000, 10_000] {
        let grads = gradients(11, dim, 2);
        group.bench_with_input(BenchmarkId::from_parameter(dim), &grads, |b, g| {
            b.iter(|| Mda::new().aggregate(black_box(g), 5).unwrap())
        });
    }
    group.finish();
}

fn bench_worker_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("mda_worker_scaling");
    // n = 11 uses exact enumeration; n = 41 falls back to the greedy
    // 2-approximation (C(41,21) is astronomical).
    for n in [11usize, 21, 41] {
        let f = (n - 1) / 2;
        let grads = gradients(n, 69, 3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &grads, |b, g| {
            b.iter(|| Mda::new().aggregate(black_box(g), f).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_all_gars,
    bench_alloc_vs_scratch,
    bench_dimension_scaling,
    bench_worker_scaling
);
criterion_main!(benches);
