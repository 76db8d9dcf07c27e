//! Feasibility planner: "can my deployment be both DP and Byzantine
//! resilient?"
//!
//! A practitioner tool built on `dpbyz::theory`: given a model size,
//! topology, and privacy budget, it prints every GAR's Table 1 necessary
//! condition, the minimum feasible batch size, and the ResNet-50 worked
//! example from §3 of the paper.
//!
//! Run with:
//! `cargo run -p dpbyz-examples --bin feasibility_planner -- [d] [n] [f] [eps] [delta] [b]`
//! (defaults: d = 69, n = 11, f = 5, eps = 0.2, delta = 1e-6, b = 50)

use dpbyz::theory::table1::{self, Condition};
use dpbyz::{analysis, PrivacyBudget};

fn arg<T: std::str::FromStr>(n: usize, default: T) -> T {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let d: usize = arg(1, 69);
    let n: usize = arg(2, 11);
    let f: usize = arg(3, 5);
    let eps: f64 = arg(4, 0.2);
    let delta: f64 = arg(5, 1e-6);
    let b: usize = arg(6, 50);

    let budget = match PrivacyBudget::new(eps, delta) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("invalid privacy budget: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "deployment: d = {d}, n = {n}, f = {f}, batch b = {b}, budget (ε = {eps}, δ = {delta})"
    );
    println!("C = ε/√ln(1.25/δ) = {:.5}\n", budget.c_constant());

    println!("Table 1 necessary conditions (Propositions 1-3):");
    println!(
        "{:<14} {:<44} {:>10} {:>12}",
        "GAR", "necessary condition at this deployment", "status", "min batch"
    );
    for row in table1::table(n, f, d, b, budget) {
        let (desc, status) = match row.condition {
            Condition::MinBatch(min_b) => (
                format!("batch size b >= {min_b:.0}"),
                if row.satisfied { "OK" } else { "VIOLATED" },
            ),
            Condition::MaxByzantineFraction(t) => (
                format!(
                    "Byzantine fraction f/n <= {t:.5} (have {:.3})",
                    f as f64 / n as f64
                ),
                if row.satisfied { "OK" } else { "VIOLATED" },
            ),
        };
        let min_batch = table1::required_batch(&row.gar, n, f, d, budget)
            .map_or("-".to_string(), |v| v.to_string());
        println!(
            "{:<14} {:<44} {:>10} {:>12}",
            row.gar, desc, status, min_batch
        );
    }

    println!("\nBatch frontier for Krum across model sizes (b ∈ Ω(√(n·d))):");
    for (dim, min_b) in analysis::batch_frontier(
        "krum",
        n,
        f,
        &[69, 1_000, 100_000, 1_000_000, 25_600_000],
        budget,
    ) {
        println!("  d = {dim:>10}  =>  b >= {min_b}");
    }

    println!("\nMDA's tolerable Byzantine fraction at b = {b} (f/n ∈ O(b/(√d + b))):");
    for (dim, tau) in
        analysis::mda_fraction_frontier(b, &[69, 1_000, 100_000, 1_000_000, 25_600_000], budget)
    {
        println!("  d = {dim:>10}  =>  f/n <= {tau:.6}");
    }

    let ex = analysis::resnet50_example(budget);
    println!(
        "\nResNet-50 worked example (§3): d = {}, √d = {:.0}",
        ex.dim, ex.sqrt_d
    );
    for (gar, req) in ex.required_batches {
        match req {
            Some(b) => println!("  {gar:<14} needs b >= {b}"),
            None => println!("  {gar:<14} condition vacuous at f/n = 5/11"),
        }
    }
    println!("\n=> at contemporary model sizes, no statistically-robust GAR retains its");
    println!("   certificate under (0,1)²-budget DP noise with practical batch sizes.");
}
