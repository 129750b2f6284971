//! Figure 5: percentage of correct scheme choices per sampling strategy,
//! all strategies sampling 640 tuples of the first 64 Ki block.
//!
//! A choice is "correct" when the compressed size it leads to is at most 2 %
//! worse than the best size over all root schemes (paper footnote 2).

use crate::Table;
use btr_datagen::pbi;
use btrblocks::block::{compress_block_with, BlockRef};
use btrblocks::scheme::{pick, pick_str};
use btrblocks::{ColumnData, Config, SchemeCode};

/// The sampling strategies of Figure 5 as `(runs, run_len)`.
pub const STRATEGIES: [(&str, usize, usize); 7] = [
    ("640x1 (single tuples)", 640, 1),
    ("320x2", 320, 2),
    ("80x8", 80, 8),
    ("40x16", 40, 16),
    ("10x64 (default)", 10, 64),
    ("5x128", 5, 128),
    ("1x640 (single range)", 1, 640),
];

/// Exhaustive best: compress with every applicable root scheme, take the min.
fn optimal_size(data: &ColumnData, cfg: &Config) -> usize {
    let mut best = usize::MAX;
    for &code in SchemeCode::applicable(data.column_type()) {
        // OneValue only applies to constant blocks.
        if code == SchemeCode::OneValue {
            let constant = match data {
                ColumnData::Int(v) => v.windows(2).all(|w| w[0] == w[1]),
                ColumnData::Double(v) => v.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()),
                ColumnData::Str(a) => (1..a.len()).all(|i| a.get(i) == a.get(0)),
            };
            if !constant {
                continue;
            }
        }
        let bytes = match data {
            ColumnData::Int(v) => compress_block_with(code, BlockRef::Int(v), cfg),
            ColumnData::Double(v) => compress_block_with(code, BlockRef::Double(v), cfg),
            ColumnData::Str(a) => compress_block_with(code, BlockRef::Str(a), cfg),
        };
        best = best.min(bytes.len());
    }
    best
}

fn chosen_size(data: &ColumnData, cfg: &Config) -> usize {
    let code = match data {
        ColumnData::Int(v) => pick(v, cfg.max_cascade_depth, cfg).code,
        ColumnData::Double(v) => pick(v, cfg.max_cascade_depth, cfg).code,
        ColumnData::Str(a) => pick_str(a, cfg.max_cascade_depth, cfg).code,
    };
    match data {
        ColumnData::Int(v) => compress_block_with(code, BlockRef::Int(v), cfg).len(),
        ColumnData::Double(v) => compress_block_with(code, BlockRef::Double(v), cfg).len(),
        ColumnData::Str(a) => compress_block_with(code, BlockRef::Str(a), cfg).len(),
    }
}

/// Regenerates Figure 5. `rows` should be one block (the paper uses the
/// first 64 000-tuple block of every column).
pub fn run(rows: usize, seed: u64) -> String {
    let block = rows.min(64_000);
    let cols = pbi::registry(block, seed);
    let base_cfg = Config::default();
    let optimal: Vec<usize> = cols
        .iter()
        .map(|c| optimal_size(&c.data, &base_cfg))
        .collect();
    let mut table = Table::new(&["strategy", "correct choices %"]);
    for &(name, runs, run_len) in &STRATEGIES {
        // Pure sampling, as in the paper's experiment: analytic estimates
        // would make every strategy look identical because they ignore the
        // sample.
        let cfg = Config {
            sample_runs: runs,
            sample_run_len: run_len,
            analytic_estimates: false,
            ..Config::default()
        };
        let correct = cols
            .iter()
            .zip(&optimal)
            .filter(|(col, &opt)| chosen_size(&col.data, &cfg) as f64 <= opt as f64 * 1.02)
            .count();
        let acc = correct as f64 / cols.len() as f64;
        table.row(vec![name.to_string(), format!("{:.1}", acc * 100.0)]);
    }
    format!(
        "Figure 5: correct scheme choices per sampling strategy (N = 640, first {block}-tuple block)\n\n{}",
        table.render()
    )
}
