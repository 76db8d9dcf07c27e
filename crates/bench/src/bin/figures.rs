//! Regenerates the data behind Figures 2, 3 and 4.
//!
//! Paper protocol (§5.1): logistic regression (d = 69) on `phishing`,
//! n = 11 workers (f = 5 under attack, MDA; averaging otherwise), lr = 2,
//! momentum 0.99, G_max = 10⁻², δ = 10⁻⁶, ε = 0.2 in the DP panels,
//! T = 1000 steps, seeds 1–5. Fig. 2: b = 50, Fig. 3: b = 10,
//! Fig. 4: b = 500. Each figure is the `paper-core` scenario pack
//! (clean/ALIE/FoE × {no DP, ε = 0.2}) swept over a builder base at the
//! figure's batch size.
//!
//! Usage:
//!   cargo run --release -p dpbyz-bench --bin figures            # all three
//!   cargo run --release -p dpbyz-bench --bin figures -- --fig 2
//!   cargo run --release -p dpbyz-bench --bin figures -- --quick # reduced scale

use dpbyz::data::synthetic::PHISHING_SIZE;
use dpbyz::prelude::*;
use dpbyz::report::{ascii_plot, csv, Series};
use dpbyz_bench::{arg_present, arg_value, write_csv};

/// Mean ± std of the tail training loss (last 5% of steps).
fn tail_loss(histories: &[RunHistory]) -> SeedSummary {
    let k = (histories[0].train_loss.len() / 20).max(1);
    SeedSummary::from_metric(histories, |h| h.tail_loss(k))
}

/// Mean ± std of the final test accuracy (NaN if never evaluated).
fn final_accuracy(histories: &[RunHistory]) -> SeedSummary {
    SeedSummary::from_metric(histories, |h| h.final_accuracy().unwrap_or(f64::NAN))
}

/// Sweeps the `paper-core` pack over the §5.1 builder at one batch size.
/// Returns each cell's label (without the pack prefix) and its per-seed
/// histories, in the pack's cell order.
fn run_figure(
    batch_size: usize,
    steps: u32,
    dataset_size: usize,
    seeds: &[u64],
) -> Result<Vec<(String, Vec<RunHistory>)>, PipelineError> {
    // All six cells × seeds fan out over the parallel sweep executor.
    let base = Experiment::builder()
        .batch_size(batch_size)
        .steps(steps)
        .dataset_size(dataset_size);
    let results = SweepBuilder::over(base)
        .with_pack("paper-core")
        .seeds(seeds)
        .run()?;
    Ok(results
        .cells
        .into_iter()
        .map(|run| {
            (
                run.label.trim_start_matches("paper-core/").to_string(),
                run.histories,
            )
        })
        .collect())
}

struct FigureSpec {
    number: u32,
    batch_size: usize,
    paper_note: &'static str,
}

const FIGURES: [FigureSpec; 3] = [
    FigureSpec {
        number: 2,
        batch_size: 50,
        paper_note: "b=50: no-DP converges under attack with MDA; DP destroys the protection",
    },
    FigureSpec {
        number: 3,
        batch_size: 10,
        paper_note: "b=10: variance too high — DP hampers training even without attack",
    },
    FigureSpec {
        number: 4,
        batch_size: 500,
        paper_note:
            "b=500: everything converges, DP+attack included (antagonism, not impossibility)",
    },
];

fn main() {
    let quick = arg_present("--quick");
    let which: Option<u32> = arg_value("--fig").and_then(|v| v.parse().ok());
    let (steps, dataset_size, seeds): (u32, usize, &[u64]) = if quick {
        (150, 3000, &[1, 2])
    } else {
        (1000, PHISHING_SIZE, &Experiment::PAPER_SEEDS)
    };

    for spec in FIGURES
        .iter()
        .filter(|s| which.is_none_or(|w| w == s.number))
    {
        println!(
            "\n=== Figure {} (b = {}) — {}",
            spec.number, spec.batch_size, spec.paper_note
        );
        let cells =
            run_figure(spec.batch_size, steps, dataset_size, seeds).expect("figure cells run");
        for (label, histories) in &cells {
            let tail = tail_loss(histories);
            let acc = final_accuracy(histories);
            println!(
                "  {:<13} tail loss {:.5} ± {:.5}, accuracy {:.1}% ± {:.1}%",
                label,
                tail.mean,
                tail.std,
                acc.mean * 100.0,
                acc.std * 100.0
            );
        }

        // CSV: per-step mean loss for each cell.
        let mut rows = Vec::new();
        let curves: Vec<(String, Vec<f64>)> = cells
            .iter()
            .map(|(label, histories)| {
                let curve = SeedSummary::loss_curve(histories);
                (label.clone(), curve.into_iter().map(|s| s.mean).collect())
            })
            .collect();
        for t in 0..steps as usize {
            let mut row = vec![(t + 1).to_string()];
            for (_, c) in &curves {
                row.push(format!("{:.6}", c[t]));
            }
            rows.push(row);
        }
        let mut header = vec!["step"];
        for (label, _) in &curves {
            header.push(label.as_str());
        }
        let header_refs: Vec<&str> = header.to_vec();
        write_csv(
            &format!("figure{}_loss.csv", spec.number),
            &csv(&header_refs, &rows),
        );

        // CSV: summary per cell.
        let summary_rows: Vec<Vec<String>> = cells
            .iter()
            .map(|(label, histories)| {
                let tail = tail_loss(histories);
                let min = SeedSummary::from_metric(histories, |h| h.min_loss());
                let acc = final_accuracy(histories);
                let vn: f64 = histories.iter().map(|h| h.mean_vn_submitted()).sum();
                vec![
                    label.clone(),
                    format!("{:.6}", min.mean),
                    format!("{:.6}", tail.mean),
                    format!("{:.6}", tail.std),
                    format!("{:.4}", acc.mean),
                    format!("{:.4}", acc.std),
                    format!("{:.4}", vn / histories.len() as f64),
                ]
            })
            .collect();
        write_csv(
            &format!("figure{}_summary.csv", spec.number),
            &csv(
                &[
                    "config",
                    "min_loss",
                    "tail_loss_mean",
                    "tail_loss_std",
                    "accuracy_mean",
                    "accuracy_std",
                    "vn_submitted",
                ],
                &summary_rows,
            ),
        );

        // ASCII rendering of the loss curves (log10), one glyph per cell.
        const GLYPHS: [char; 6] = ['c', 'd', 'a', 'A', 'f', 'F'];
        let logged: Vec<(String, Vec<f64>)> = curves
            .iter()
            .map(|(l, c)| (l.clone(), c.iter().map(|x| x.max(1e-9).log10()).collect()))
            .collect();
        let series: Vec<Series> = logged
            .iter()
            .zip(GLYPHS)
            .map(|((l, c), g)| Series::with_glyph(l.as_str(), c, g))
            .collect();
        println!("\n  log10(training loss) over steps:");
        print!("{}", ascii_plot(&series, 72, 16));
    }

    println!("\nShape check against the paper:");
    println!("  Fig 2 (b=50): 'mda/alie/dp'/'mda/foe/dp' tail losses well above the other four;");
    println!("  Fig 3 (b=10): 'clean/dp' already fails (high tail loss) even unattacked;");
    println!("  Fig 4 (b=500): all six configurations reach a similar low loss.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_cells_produce_summaries() {
        let cells = run_figure(10, 8, 200, &[1, 2]).unwrap();
        let labels: Vec<&str> = cells.iter().map(|(label, _)| label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "clean/nodp",
                "clean/dp",
                "mda/alie/nodp",
                "mda/alie/dp",
                "mda/foe/nodp",
                "mda/foe/dp"
            ]
        );
        for (label, histories) in &cells {
            let tail = tail_loss(histories);
            assert_eq!(tail.runs, 2, "{label}");
            assert!(tail.mean.is_finite(), "{label}");
            assert_eq!(final_accuracy(histories).runs, 2, "{label}");
            assert_eq!(SeedSummary::loss_curve(histories).len(), 8, "{label}");
        }
    }
}
