//! Emits `results/BENCH_gar.json`: per-GAR aggregation timings, serial vs
//! the intra-round parallel path, at d ∈ {10³, 10⁵, 10⁶} on the paper's
//! n = 11 cohort — plus the untiled vs cache-tiled distance-matrix fill
//! the Krum family drives. CI runs it in smoke mode (`--test`); the full
//! run is committed per perf change, so the perf trajectory of the
//! aggregation layer accumulates in the history of that file.
//!
//! Both paths are bit-identical by construction (and digest-pinned in the
//! test suite), so every pair of entries here measures the same
//! computation — the deltas are pure scheduling and cache effects.
//!
//! ```text
//! cargo run --release -p dpbyz-bench --bin bench_gar          # full run
//! cargo run --release -p dpbyz-bench --bin bench_gar -- --test # CI smoke
//! ```

use dpbyz::gars::GarScratch;
use dpbyz::registry::build_gar;
use dpbyz::ComponentSpec;
use dpbyz_bench::results_dir;
use dpbyz_tensor::{kernels, Prng, Vector};
use std::time::Instant;

const REPEATS: usize = 5;

/// The paper's cohort size.
const N: usize = 11;

/// Threads on the parallel entries. The artifact records serial and
/// parallel side by side; on a single-core runner the parallel column
/// simply prices the pool's coordination overhead.
const AGG_THREADS: usize = 4;

/// The GARs with a sharded intra-round path, each at its tolerance for
/// n = 11 (capped at the protocol's f = 5).
const GARS: [(&str, usize); 7] = [
    ("median", 5),
    ("trimmed-mean", 5),
    ("meamed", 5),
    ("phocas", 5),
    ("krum", 4),
    ("multi-krum", 4),
    ("bulyan", 2),
];

/// Median wall-clock seconds of `REPEATS` runs of `f`.
fn time_median(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[REPEATS / 2]
}

/// Hand-rolled JSON with a stable key order, no serializer dependency.
fn write_json(file: &str, schema: &str, entries: &[(String, f64)]) {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"schema\": \"{schema}\",\n"));
    json.push_str(&format!("  \"repeats\": {REPEATS},\n"));
    json.push_str("  \"seconds\": {\n");
    for (i, (key, secs)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        json.push_str(&format!("    \"{key}\": {secs:.9}{comma}\n"));
    }
    json.push_str("  }\n}\n");
    let path = results_dir().join(file);
    std::fs::write(&path, &json).expect("write bench json");
    println!("wrote {}", path.display());
    print!("{json}");
}

/// Rounds per timing sample, scaled down with the dimension so every
/// entry lands in a robustly timeable range.
fn rounds_for(dim: usize) -> usize {
    (500_000 / dim.max(1)).max(1)
}

/// Appends the serial and parallel entries for one GAR at one dimension,
/// asserting bitwise agreement between the two paths as it goes.
fn gar_entries(entries: &mut Vec<(String, f64)>, id: &str, f: usize, dim: usize, grads: &[Vector]) {
    let gar = build_gar(&ComponentSpec::new(id)).expect("built-in gar");
    let rounds = rounds_for(dim);
    let mut out = Vector::default();

    let mut serial = GarScratch::new();
    let secs = time_median(|| {
        for _ in 0..rounds {
            gar.aggregate_into(grads, f, &mut serial, &mut out)
                .expect("aggregates");
        }
        std::hint::black_box(out.l2_norm());
    });
    entries.push((format!("gar_{rounds}rounds_d{dim}/{id}/serial"), secs));
    let reference = out.clone();

    let mut parallel = GarScratch::new();
    parallel.set_parallelism(AGG_THREADS);
    let secs = time_median(|| {
        for _ in 0..rounds {
            gar.aggregate_into(grads, f, &mut parallel, &mut out)
                .expect("aggregates");
        }
        std::hint::black_box(out.l2_norm());
    });
    entries.push((
        format!("gar_{rounds}rounds_d{dim}/{id}/parallel{AGG_THREADS}"),
        secs,
    ));

    assert!(
        reference
            .iter()
            .zip(out.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "{id}: parallel diverged from serial at d = {dim}"
    );
}

/// Appends the untiled vs cache-tiled all-pairs distance-fill entries at
/// one dimension (the Krum-family O(n²·d) hot spot).
fn distance_entries(entries: &mut Vec<(String, f64)>, dim: usize, grads: &[Vector]) {
    let members: Vec<usize> = (0..grads.len()).collect();
    let rounds = rounds_for(dim);
    let mut out = Vec::new();
    let mut acc = Vec::new();
    let secs = time_median(|| {
        for _ in 0..rounds {
            kernels::pairwise_squared_distances(grads, &members, &mut out);
            std::hint::black_box(out.last());
        }
    });
    entries.push((format!("distance_fill_{rounds}rounds_d{dim}/untiled"), secs));
    let secs = time_median(|| {
        for _ in 0..rounds {
            kernels::pairwise_squared_distances_tiled(grads, &members, &mut out, &mut acc);
            std::hint::black_box(out.last());
        }
    });
    entries.push((format!("distance_fill_{rounds}rounds_d{dim}/tiled"), secs));
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    // Smoke mode (CI): one tiny dimension, every code path exercised —
    // including the serial/parallel bitwise assertion — no artifact.
    let dims: &[usize] = if smoke {
        &[257]
    } else {
        &[1_000, 100_000, 1_000_000]
    };

    let mut entries: Vec<(String, f64)> = Vec::new();
    for &dim in dims {
        let mut rng = Prng::seed_from_u64(21);
        let grads: Vec<Vector> = (0..N).map(|_| rng.normal_vector(dim, 1.0)).collect();
        for (id, f) in GARS {
            gar_entries(&mut entries, id, f, dim, &grads);
        }
        distance_entries(&mut entries, dim, &grads);
    }

    if smoke {
        println!(
            "smoke OK ({} entries measured, artifact skipped)",
            entries.len()
        );
    } else {
        write_json("BENCH_gar.json", "dpbyz-bench-gar/v1", &entries);
    }
}
