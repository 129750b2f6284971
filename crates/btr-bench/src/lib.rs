//! The paper's byte-count tables, regenerated deterministically.
//!
//! [`tables`] renders Table 2, Figure 4 (ratio), Figure 5, Figure 6 (size vs
//! optimum), Figure 7, Table 3, the §6.5 pool table and Table 4 (ratio and
//! root scheme) over `btr-datagen`'s synthetic columns at fixed [`ROWS`] and
//! [`SEED`]. Every cell is a function of compressed byte counts, so the
//! output is identical on every host; `tests/golden.rs` compares it byte for
//! byte with `tests/golden/tables.txt`, and the one binary prints it.
//!
//! Nothing here reads a clock: throughput, latency and cost are measured by
//! the `benchmark/` harness alone. `EXPERIMENTS.md` maps every paper claim
//! to a line of the golden file or to a harness metric.

pub mod experiments;
pub mod formats;
pub mod proxies;

/// Rows per generated column.
pub const ROWS: usize = 16_000;

/// Generator seed.
pub const SEED: u64 = 42;

/// Renders every table, each under a rule line, in the paper's order.
pub fn tables() -> String {
    use experiments as e;
    let sections = [
        e::table2::run(ROWS, SEED),
        e::figure4::run(ROWS, SEED),
        e::figure5::run(ROWS, SEED),
        e::figure6::run(ROWS, SEED),
        e::figure7::run(ROWS, SEED),
        e::table3::run(ROWS, SEED),
        e::pde_pool::run(ROWS, SEED),
        e::table4::run(ROWS, SEED),
    ];
    let mut out = format!(
        "BtrBlocks reproduction: the paper's byte-count tables at {ROWS} rows per column, \
         seed {SEED}\n"
    );
    for section in sections {
        out.push_str(&"=".repeat(78));
        out.push('\n');
        out.push_str(section.trim_end());
        out.push('\n');
    }
    out
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
}
