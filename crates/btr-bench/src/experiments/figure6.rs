//! Figure 6: compressed-size loss versus sample size.

use crate::Table;
use btr_datagen::{pbi, GenColumn};
use btrblocks::block::{compress_block, BlockRef};
use btrblocks::{ColumnData, Config};

/// The sample sizes of Figure 6 as `(label, runs, run_len)`; `run_len == 0`
/// means "entire block".
pub const SIZES: [(&str, usize, usize); 9] = [
    ("10x8", 10, 8),
    ("10x16", 10, 16),
    ("10x32", 10, 32),
    ("10x64 (default)", 10, 64),
    ("10x128", 10, 128),
    ("10x256", 10, 256),
    ("10x512", 10, 512),
    ("10x1024", 10, 1024),
    ("entire block", 1, 0),
];

fn total_compressed(cols: &[GenColumn], rows: usize, runs: usize, run_len: usize) -> usize {
    let cfg = Config {
        sample_runs: runs,
        sample_run_len: if run_len == 0 { rows } else { run_len },
        ..Config::default()
    };
    cols.iter()
        .map(|col| {
            match &col.data {
                ColumnData::Int(v) => compress_block(BlockRef::Int(v), &cfg).0.len(),
                ColumnData::Double(v) => compress_block(BlockRef::Double(v), &cfg).0.len(),
                ColumnData::Str(a) => compress_block(BlockRef::Str(a), &cfg).0.len(),
            }
        })
        .sum()
}

/// Regenerates Figure 6.
pub fn run(rows: usize, seed: u64) -> String {
    let block = rows.min(64_000);
    let cols = pbi::registry(block, seed);
    let sizes = SIZES.map(|(_, runs, run_len)| total_compressed(&cols, block, runs, run_len));
    // "Entire block" sampling *is* exhaustive estimation in our framework:
    // each viable scheme compresses the full block and the best wins.
    let opt = sizes[SIZES.len() - 1];
    let mut table = Table::new(&["sample size", "sampled tuples %", "size vs optimum"]);
    for (&(label, runs, run_len), size) in SIZES.iter().zip(sizes) {
        let pct = if run_len == 0 {
            100.0
        } else {
            100.0 * (runs * run_len) as f64 / block as f64
        };
        let loss = 100.0 * (size as f64 / opt as f64 - 1.0);
        table.row(vec![
            label.to_string(),
            format!("{pct:.2}"),
            format!("+{loss:.2}%"),
        ]);
    }
    format!(
        "Figure 6: Public-BI-like compressed size for different sample sizes \
         ({block}-tuple blocks)\n\n{}",
        table.render()
    )
}
