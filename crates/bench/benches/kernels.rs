//! Scalar-reference vs vectorized kernel throughput, per kernel, across
//! dimensions 10 / 1 000 / 100 000.
//!
//! The vectorized kernels (`dpbyz_tensor::kernels`) are 4-lane blocked
//! loops with fixed, machine-independent summation order; the references
//! (`kernels::reference`) are the historical sequential folds. This group
//! is the scalar-vs-vectorized measurement behind the kernel layer's
//! dispatch choices (e.g. `kernels::SCALAR_CUTOFF`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpbyz_tensor::{kernels, Prng, Vector};
use std::hint::black_box;

const DIMS: [usize; 3] = [10, 1_000, 100_000];

fn vectors(dim: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = Prng::seed_from_u64(seed);
    (
        rng.normal_vector(dim, 1.0).into_vec(),
        rng.normal_vector(dim, 1.0).into_vec(),
    )
}

fn bench_reductions(c: &mut Criterion) {
    for dim in DIMS {
        let (a, b) = vectors(dim, 1);
        let mut group = c.benchmark_group(format!("kernels_d{dim}"));
        group.bench_function(BenchmarkId::new("dot", "scalar"), |bench| {
            bench.iter(|| kernels::reference::dot(black_box(&a), black_box(&b)))
        });
        group.bench_function(BenchmarkId::new("dot", "vectorized"), |bench| {
            bench.iter(|| kernels::dot(black_box(&a), black_box(&b)))
        });
        group.bench_function(BenchmarkId::new("l2_norm_squared", "scalar"), |bench| {
            bench.iter(|| kernels::reference::sum_squares(black_box(&a)))
        });
        group.bench_function(BenchmarkId::new("l2_norm_squared", "vectorized"), |bench| {
            bench.iter(|| kernels::sum_squares(black_box(&a)))
        });
        group.bench_function(BenchmarkId::new("squared_distance", "scalar"), |bench| {
            bench.iter(|| kernels::reference::squared_distance(black_box(&a), black_box(&b)))
        });
        group.bench_function(
            BenchmarkId::new("squared_distance", "vectorized"),
            |bench| bench.iter(|| kernels::squared_distance(black_box(&a), black_box(&b))),
        );
        group.bench_function(BenchmarkId::new("sum", "scalar"), |bench| {
            bench.iter(|| kernels::reference::sum(black_box(&a)))
        });
        group.bench_function(BenchmarkId::new("sum", "vectorized"), |bench| {
            bench.iter(|| kernels::sum(black_box(&a)))
        });
        group.finish();
    }
}

fn bench_elementwise(c: &mut Criterion) {
    for dim in DIMS {
        let (a, b) = vectors(dim, 2);
        let mut group = c.benchmark_group(format!("kernels_elementwise_d{dim}"));
        let mut out = vec![0.0; dim];
        group.bench_function(BenchmarkId::new("axpy", "scalar"), |bench| {
            bench.iter(|| {
                for (o, x) in out.iter_mut().zip(&a) {
                    *o += 0.5 * x;
                }
                black_box(out.last());
            })
        });
        group.bench_function(BenchmarkId::new("axpy", "vectorized"), |bench| {
            bench.iter(|| {
                kernels::axpy(&mut out, 0.5, black_box(&a));
                black_box(out.last());
            })
        });
        group.bench_function(BenchmarkId::new("hadamard", "vectorized"), |bench| {
            bench.iter(|| {
                kernels::hadamard(black_box(&a), black_box(&b), &mut out);
                black_box(out.last());
            })
        });
        group.finish();
    }
}

/// The per-pair scalar path vs the batched all-pairs fill the Krum-family
/// scratch drives every round (n = 11, the paper topology).
fn bench_distance_matrix(c: &mut Criterion) {
    for dim in DIMS {
        let mut rng = Prng::seed_from_u64(3);
        let grads: Vec<Vector> = (0..11).map(|_| rng.normal_vector(dim, 1.0)).collect();
        let members: Vec<usize> = (0..grads.len()).collect();
        let mut group = c.benchmark_group(format!("kernels_distance_matrix_n11_d{dim}"));
        let mut out = Vec::new();
        group.bench_function("scalar_per_pair", |bench| {
            bench.iter(|| {
                kernels::reference::pairwise_squared_distances(
                    black_box(&grads),
                    &members,
                    &mut out,
                );
                black_box(out.last());
            })
        });
        group.bench_function("vectorized_batched", |bench| {
            bench.iter(|| {
                kernels::pairwise_squared_distances(black_box(&grads), &members, &mut out);
                black_box(out.last());
            })
        });
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_reductions,
    bench_elementwise,
    bench_distance_matrix
);
criterion_main!(benches);
