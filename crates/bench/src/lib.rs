//! Shared harness utilities for the experiment binaries.
//!
//! The binaries in `src/bin/` regenerate the paper's evaluation artefacts:
//!
//! * `figures` — Figs. 2, 3, 4 (loss/accuracy of the `paper-core`
//!   scenario pack, clean/ALIE/FoE × {no DP, ε = 0.2}, at b = 10/50/500);
//! * `table1` — the per-GAR necessary conditions plus empirical VN-ratio
//!   confirmation;
//! * `theorem1` — the Θ(d·log(1/δ)/(T·b²·ε²)) error-rate scaling sweeps;
//! * `sweep` — the "full version" hyper-parameter sweep and the ablations
//!   called out in DESIGN.md (attack visibility, momentum placement,
//!   Laplace vs Gaussian noise).
//!
//! Results are written as CSV under `results/` and summarized on stdout
//! with ASCII plots.

use std::path::{Path, PathBuf};

/// Directory experiment CSVs are written to (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    std::fs::create_dir_all(&dir).expect("create results dir"); // lint:allow(panic-unwrap, reason = "bench harness I/O: failing to persist results should abort the run loudly")
    dir
}

/// Writes a CSV file into [`results_dir`] and reports the path on stdout.
pub fn write_csv(name: &str, content: &str) {
    let path = results_dir().join(name);
    std::fs::write(&path, content).expect("write results csv"); // lint:allow(panic-unwrap, reason = "bench harness I/O: failing to persist results should abort the run loudly")
    println!("  wrote {}", path.display());
}

/// Parses `--flag value`-style arguments very simply.
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Whether a bare `--flag` is present.
pub fn arg_present(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}
