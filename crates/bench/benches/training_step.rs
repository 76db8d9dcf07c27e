//! End-to-end distributed-step throughput: the paper's Fig. 2 protocol
//! (n = 11, d = 69, MDA + ALIE) per configuration, and the batch-size
//! extremes of Figs. 3 and 4.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpbyz_core::Experiment;
use dpbyz_dp::{GaussianMechanism, Mechanism};
use dpbyz_gars::{Gar, GarScratch, Mda};
use dpbyz_tensor::{Prng, Vector};
use std::hint::black_box;

/// One protocol cell as a builder chain: the builder's §5.1 defaults
/// aggregate with MDA once an attack is armed, as the figures' cells do.
fn run_steps(batch: usize, eps: Option<f64>, attack: Option<&'static str>, steps: u32) {
    let mut builder = Experiment::builder()
        .batch_size(batch)
        .steps(steps)
        .dataset_size(1200);
    if let Some(attack) = attack {
        builder = builder.attack(attack);
    }
    if let Some(epsilon) = eps {
        builder = builder.epsilon(epsilon);
    }
    black_box(builder.build().unwrap().run(1).unwrap());
}

fn bench_configurations(c: &mut Criterion) {
    let mut group = c.benchmark_group("training_20steps_b50");
    group.sample_size(10);
    group.bench_function("clean", |b| b.iter(|| run_steps(50, None, None, 20)));
    group.bench_function("dp", |b| b.iter(|| run_steps(50, Some(0.2), None, 20)));
    group.bench_function("mda_alie", |b| {
        b.iter(|| run_steps(50, None, Some("alie"), 20))
    });
    group.bench_function("dp_mda_alie", |b| {
        b.iter(|| run_steps(50, Some(0.2), Some("alie"), 20))
    });
    group.finish();
}

fn bench_batch_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("training_20steps_batch_scaling");
    group.sample_size(10);
    for batch in [10usize, 50, 500] {
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            b.iter(|| run_steps(batch, Some(0.2), Some("alie"), 20))
        });
    }
    group.finish();
}

/// Old vs new server-round body (n = 11, d = 69, MDA): the pre-refactor
/// clone-per-round path — clone the submission set, allocate the noise
/// vector, allocate the VN mean, allocate the aggregate — against the
/// zero-copy path over persistent buffers. Both compute identical values;
/// the difference is pure allocation traffic.
fn bench_round_body_old_vs_new(c: &mut Criterion) {
    const N: usize = 11;
    const DIM: usize = 69;
    let mut rng = Prng::seed_from_u64(7);
    let outputs: Vec<Vector> = (0..N).map(|_| rng.normal_vector(DIM, 1.0)).collect();
    let mechanism = GaussianMechanism::with_sigma(0.01).unwrap();
    let gar = Mda::new();

    let mut group = c.benchmark_group("round_body_old_vs_new_n11_d69");
    group.sample_size(20);
    group.bench_function("old_clone_path", |b| {
        let mut rng = Prng::seed_from_u64(8);
        b.iter(|| {
            // What `ServerCore::process_round` + the worker loop did per
            // round before the refactor.
            let submissions: Vec<Vector> = outputs
                .iter()
                .map(|o| mechanism.perturb(o, &mut rng))
                .collect();
            let mean = Vector::mean(&submissions).unwrap();
            let aggregated = gar.aggregate(&submissions, 5).unwrap();
            black_box((mean.l2_norm(), aggregated))
        })
    });
    group.bench_function("new_zero_copy_path", |b| {
        let mut rng = Prng::seed_from_u64(8);
        let mut submissions = outputs.clone();
        let mut mean = Vector::default();
        let mut aggregated = Vector::default();
        let mut scratch = GarScratch::new();
        b.iter(|| {
            for (slot, o) in submissions.iter_mut().zip(&outputs) {
                slot.copy_from(o);
                mechanism.perturb_in_place(slot, &mut rng);
            }
            Vector::mean_into(&submissions, &mut mean).unwrap();
            gar.aggregate_into(&submissions, 5, &mut scratch, &mut aggregated)
                .unwrap();
            black_box(mean.l2_norm())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_configurations,
    bench_batch_sizes,
    bench_round_body_old_vs_new
);
criterion_main!(benches);
