//! Benchmark harness for the BtrBlocks reproduction.
//!
//! Every table and figure of the paper's evaluation has a module under
//! [`experiments`] and a binary under `src/bin/` that prints the regenerated
//! rows/series. Binaries accept the environment variables:
//!
//! * `BENCH_ROWS` — rows per generated column (default 128 000 = two blocks),
//! * `BENCH_SEED` — generator seed (default 42).
//!
//! Absolute numbers differ from the paper (different hardware, synthetic
//! data); what must match is the *shape*: which scheme/format wins, by
//! roughly what factor, and where crossovers happen. `EXPERIMENTS.md` records
//! paper-vs-measured for every experiment.

pub mod experiments;
pub mod formats;
pub mod proxies;

use std::time::Instant;

/// Rows per generated column for the experiments.
pub fn bench_rows() -> usize {
    std::env::var("BENCH_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(128_000)
}

/// Generator seed.
pub fn bench_seed() -> u64 {
    std::env::var("BENCH_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// Times a closure, returning `(result, seconds)`.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Times a closure averaged over `reps` runs (first run warms caches).
pub fn time_avg<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut result = f(); // warm-up
    let start = Instant::now();
    for _ in 0..reps {
        result = f();
    }
    (result, start.elapsed().as_secs_f64() / reps.max(1) as f64)
}

/// Bytes → gigabytes.
pub fn gb(bytes: usize) -> f64 {
    bytes as f64 / 1e9
}

/// Throughput in GB/s given bytes and seconds.
pub fn gbps(bytes: usize, seconds: f64) -> f64 {
    gb(bytes) / seconds.max(1e-12)
}

/// Simple fixed-width table printer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1.00".into()]);
        t.row(vec!["longer-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("longer-name"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn helpers() {
        assert!((gbps(2_000_000_000, 2.0) - 1.0).abs() < 1e-9);
        let (v, secs) = time_it(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
