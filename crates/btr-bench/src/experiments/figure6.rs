//! Figure 6: compressed-size loss versus sample size, plus the §6.3 summary
//! numbers (selection CPU share, default-strategy accuracy).

use crate::{time_it, Table};
use btr_datagen::pbi;
use btrblocks::block::{compress_block, BlockRef};
use btrblocks::scheme::{pick, pick_str};
use btrblocks::stats::{NumericStats, StringStats};
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

fn total_compressed(rows: usize, seed: u64, runs: usize, run_len: usize) -> usize {
    let cfg = Config {
        sample_runs: runs,
        sample_run_len: if run_len == 0 { rows } else { run_len },
        ..Config::default()
    };
    pbi::registry(rows, seed)
        .iter()
        .map(|col| {
            match &col.data {
                ColumnData::Int(v) => compress_block(BlockRef::Int(v), &cfg).0.len(),
                ColumnData::Double(v) => compress_block(BlockRef::Double(v), &cfg).0.len(),
                ColumnData::Str(a) => compress_block(BlockRef::Str(a), &cfg).0.len(),
            }
        })
        .sum()
}

fn optimum(rows: usize, seed: u64) -> usize {
    // "Entire block" sampling *is* exhaustive estimation in our framework:
    // each viable scheme compresses the full block and the best wins.
    total_compressed(rows, seed, 1, 0)
}

/// Fraction of compression time spent estimating ratios on samples (the
/// paper's "1.2 % of total compression time" claim, §3.1).
///
/// Measured as the *marginal* cost of sampling: full selection (statistics +
/// sample compression of every viable scheme) minus a statistics-only pass,
/// over the end-to-end compression time. Statistics are charged to
/// compression itself, as in the paper's accounting.
pub fn selection_time_fraction(rows: usize, seed: u64) -> f64 {
    let cfg = Config::default();
    let cols = pbi::registry(rows, seed);
    let (_, pick_secs) = time_it(|| {
        for col in &cols {
            match &col.data {
                ColumnData::Int(v) => {
                    pick(v, cfg.max_cascade_depth, &cfg);
                }
                ColumnData::Double(v) => {
                    pick(v, cfg.max_cascade_depth, &cfg);
                }
                ColumnData::Str(a) => {
                    pick_str(a, cfg.max_cascade_depth, &cfg);
                }
            }
        }
    });
    let (_, stats_secs) = time_it(|| {
        for col in &cols {
            match &col.data {
                ColumnData::Int(v) => {
                    std::hint::black_box(NumericStats::collect(v));
                }
                ColumnData::Double(v) => {
                    std::hint::black_box(NumericStats::collect(v));
                }
                ColumnData::Str(a) => {
                    std::hint::black_box(StringStats::collect(a));
                }
            }
        }
    });
    let (_, full_secs) = time_it(|| {
        for col in &cols {
            match &col.data {
                ColumnData::Int(v) => {
                    compress_block(BlockRef::Int(v), &cfg);
                }
                ColumnData::Double(v) => {
                    compress_block(BlockRef::Double(v), &cfg);
                }
                ColumnData::Str(a) => {
                    compress_block(BlockRef::Str(a), &cfg);
                }
            }
        }
    });
    ((pick_secs - stats_secs).max(0.0)) / full_secs.max(1e-12)
}

/// Regenerates Figure 6.
pub fn run(rows: usize, seed: u64) -> String {
    let block = rows.min(64_000);
    let opt = optimum(block, seed);
    let mut table = Table::new(&["sample size", "sampled tuples %", "size vs optimum"]);
    for &(label, runs, run_len) in &SIZES {
        let size = total_compressed(block, seed, runs, run_len);
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
    let frac = selection_time_fraction(block, seed);
    format!(
        "Figure 6: Public-BI-like compressed size for different sample sizes \
         ({block}-tuple blocks)\n\n{}\nSection 6.3 summary: scheme selection used {:.1}% of \
         compression time (paper: 1.2%)\n",
        table.render(),
        frac * 100.0
    )
}
