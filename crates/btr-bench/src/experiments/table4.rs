//! Table 4: per-column compression ratios, BtrBlocks vs Parquet+Zstd, with
//! the root scheme BtrBlocks chose.

use crate::formats::Format;
use crate::Table;
use btr_datagen::pbi;
use btr_lz::Codec;
use btrblocks::{Config, Relation};

/// Regenerates Table 4.
pub fn run(rows: usize, seed: u64) -> String {
    let mut table = Table::new(&[
        "column", "type", "size MB", "btr ratio", "zstd ratio", "scheme (root)",
    ]);
    for col in pbi::table4_columns(rows, seed) {
        let ty = match col.data {
            btrblocks::ColumnData::Str(_) => "string",
            btrblocks::ColumnData::Double(_) => "double",
            btrblocks::ColumnData::Int(_) => "integer",
        };
        let rel = Relation::new(vec![btrblocks::Column::new(col.full_name(), col.data.clone())]);
        let unc = rel.heap_size();

        let cfg = Config::default();
        let compressed = btrblocks::compress(&rel, &cfg).expect("compress");
        let scheme = compressed.columns[0]
            .schemes
            .first()
            .map(|s| s.name())
            .unwrap_or("-");
        let btr_bytes = compressed.to_bytes();
        let zstd_bytes = Format::Parquet(Codec::Heavy).compress(&rel);

        table.row(vec![
            col.full_name(),
            ty.to_string(),
            format!("{:.1}", unc as f64 / 1e6),
            format!("{:.1}", unc as f64 / btr_bytes.len().max(1) as f64),
            format!("{:.1}", unc as f64 / zstd_bytes.len().max(1) as f64),
            scheme.to_string(),
        ]);
    }
    format!(
        "Table 4: per-column compression ratios, BtrBlocks vs Parquet+Zstd (root scheme of \
         the first block shown)\n\n{}",
        table.render()
    )
}
