//! Plain-text reporting: CSV and ASCII line plots.
//!
//! The bench harness uses these to print the same rows and series the
//! paper's tables and figures report, without a plotting stack.

use std::fmt::Write as _;

/// Renders rows as CSV (header first; fields are escaped if they contain
/// commas or quotes).
pub fn csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&join_csv(
        header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    for row in rows {
        out.push_str(&join_csv(row.clone()));
        out.push('\n');
    }
    out
}

fn join_csv(fields: Vec<String>) -> String {
    fields
        .into_iter()
        .map(|f| {
            if f.contains(',') || f.contains('"') || f.contains('\n') {
                format!("\"{}\"", f.replace('"', "\"\""))
            } else {
                f
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// A labelled series for [`ascii_plot`].
#[derive(Debug, Clone)]
pub struct Series<'a> {
    /// Legend label.
    pub label: &'a str,
    /// Y values (X is the index).
    pub values: &'a [f64],
    /// Plot glyph (must be unique across series for a readable plot).
    pub glyph: char,
}

impl<'a> Series<'a> {
    /// Creates a series whose glyph is the label's first character.
    pub fn new(label: &'a str, values: &'a [f64]) -> Self {
        Series {
            label,
            values,
            glyph: label.chars().next().unwrap_or('*'),
        }
    }

    /// Creates a series with an explicit glyph.
    pub fn with_glyph(label: &'a str, values: &'a [f64], glyph: char) -> Self {
        Series {
            label,
            values,
            glyph,
        }
    }
}

/// Renders one or more series as an ASCII line plot (log-friendly: pass
/// pre-transformed values if you want a log axis). Non-finite values are
/// skipped.
pub fn ascii_plot(series: &[Series<'_>], width: usize, height: usize) -> String {
    assert!(width >= 8 && height >= 2, "plot too small");
    let finite: Vec<f64> = series
        .iter()
        .flat_map(|s| s.values.iter().copied())
        .filter(|v| v.is_finite())
        .collect();
    if finite.is_empty() {
        return String::from("(no finite data)\n");
    }
    let lo = finite.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = if hi > lo { hi - lo } else { 1.0 };
    let max_len = series.iter().map(|s| s.values.len()).max().unwrap_or(1);

    let mut grid = vec![vec![' '; width]; height];
    for s in series {
        let glyph = s.glyph;
        for (i, &v) in s.values.iter().enumerate() {
            if !v.is_finite() {
                continue;
            }
            let x = if max_len <= 1 {
                0
            } else {
                i * (width - 1) / (max_len - 1)
            };
            let y = ((v - lo) / span * (height - 1) as f64).round() as usize;
            let row = height - 1 - y.min(height - 1);
            grid[row][x] = glyph;
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "{hi:>12.4e} ┤");
    for row in grid {
        let _ = writeln!(out, "             │{}", row.into_iter().collect::<String>());
    }
    let _ = writeln!(out, "{lo:>12.4e} ┤{}", "─".repeat(width));
    for s in series {
        let _ = writeln!(out, "  {} = {}", s.glyph, s.label);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_escapes_fields() {
        let out = csv(&["a", "b"], &[vec!["1,5".into(), "say \"hi\"".into()]]);
        assert_eq!(out, "a,b\n\"1,5\",\"say \"\"hi\"\"\"\n");
    }

    #[test]
    fn ascii_plot_contains_glyphs_and_bounds() {
        let values = [0.0, 1.0, 4.0, 9.0];
        let plot = ascii_plot(&[Series::new("loss", &values)], 20, 6);
        assert!(plot.contains('l'));
        assert!(plot.contains("9.0000e0"));
        assert!(plot.contains("0.0000e0"));
        assert!(plot.contains("l = loss"));
    }

    #[test]
    fn ascii_plot_handles_constant_and_nan() {
        let plot = ascii_plot(&[Series::new("c", &[2.0, f64::NAN, 2.0])], 10, 3);
        assert!(plot.contains('c'));
        let empty = ascii_plot(&[Series::new("e", &[f64::NAN])], 10, 3);
        assert!(empty.contains("no finite data"));
    }
}
