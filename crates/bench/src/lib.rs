//! Experiment harness for reproducing Section VII of the paper.
//!
//! Every table and figure has a runner in [`exp`], beside the `sim` soak;
//! the `experiments` binary dispatches to them and prints paper-style
//! tables. Wall-clock numbers beyond the paper come from the standalone
//! `benchmark/` package, not from this crate.
//!
//! Scaling note: the synthetic datasets (`repose_datagen`) are ~100–1000×
//! smaller than the paper's, and the default query batch is 5 instead of
//! 100, so *absolute* times are not comparable — the harness is about the
//! shape: who wins, by what factor, and where the U-curves turn.
//!
//! ```
//! use repose_bench::runner::{load, ExpConfig};
//! use repose_bench::{fmt_bytes, fmt_secs};
//! use repose_datagen::PaperDataset;
//!
//! let mut exp = ExpConfig::default();
//! exp.scale = 0.02; // tiny, for a fast doctest
//! exp.queries = 2;
//! let (data, queries) = load(PaperDataset::TDrive, &exp);
//! assert!(!data.is_empty());
//! assert_eq!(queries.len(), 2);
//! assert_eq!(fmt_secs(0.0123), "12.30ms");
//! assert_eq!(fmt_bytes(2048), "2.0KiB");
//! ```

#![forbid(unsafe_code)]

pub mod exp;
pub mod runner;

use serde::Serialize;

/// One measured algorithm/dataset/measure cell (Table IV's three metrics).
#[derive(Debug, Clone, Serialize)]
pub struct Cell {
    /// Algorithm name (REPOSE / DITA / DFT / LS).
    pub algo: String,
    /// Dataset label.
    pub dataset: String,
    /// Measure name.
    pub measure: String,
    /// Average simulated distributed query time, seconds.
    pub qt_s: f64,
    /// Index size, bytes (`None` where the paper prints "/").
    pub is_bytes: Option<u64>,
    /// Index construction time, seconds (`None` where the paper prints "/").
    pub it_s: Option<f64>,
}

/// Generic experiment record: a labeled series of (x, y) points, one per
/// swept parameter value — enough to regenerate any figure.
#[derive(Debug, Clone, Serialize)]
pub struct Series {
    /// Series label (e.g. "REPOSE Hausdorff T-drive").
    pub label: String,
    /// Swept x values.
    pub x: Vec<f64>,
    /// Measured y values (seconds unless stated otherwise).
    pub y: Vec<f64>,
}

/// Formats seconds compactly for table cells.
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Formats bytes compactly.
pub fn fmt_bytes(b: u64) -> String {
    if b < 1024 {
        format!("{b}B")
    } else if b < 1024 * 1024 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{:.1}MiB", b as f64 / (1024.0 * 1024.0))
    }
}

/// Prints an aligned table: `header` then `rows` of equal arity.
pub fn print_table<S: AsRef<str>>(header: &[S], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.as_ref().len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let line = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", line(&header.iter().map(|s| s.as_ref().to_string()).collect::<Vec<_>>()));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1)))
    );
    for r in rows {
        println!("{}", line(r));
    }
}

/// Prints a figure's table — one row per algorithm: its name, then its
/// query time at each of `xs`, headed `column(x)` — and returns the same
/// rows in the same order as series labelled `"<algorithm> <suffix>"`.
pub fn series_table(
    rows: Vec<(&str, Vec<f64>)>,
    xs: &[f64],
    column: impl Fn(f64) -> String,
    suffix: &str,
) -> Vec<Series> {
    let mut header = vec!["Algorithm".to_string()];
    header.extend(xs.iter().map(|&x| column(x)));
    let cells = |(name, ys): &(&str, Vec<f64>)| {
        std::iter::once(name.to_string()).chain(ys.iter().map(|&y| fmt_secs(y))).collect()
    };
    print_table(&header, &rows.iter().map(cells).collect::<Vec<_>>());
    let series = |(name, y)| Series { label: format!("{name} {suffix}"), x: xs.to_vec(), y };
    rows.into_iter().map(series).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(0.0000005), "0.5us");
        assert_eq!(fmt_secs(0.0123), "12.30ms");
        assert_eq!(fmt_secs(3.2), "3.20s");
    }

    #[test]
    fn fmt_bytes_ranges() {
        assert_eq!(fmt_bytes(12), "12B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0MiB");
    }
}
