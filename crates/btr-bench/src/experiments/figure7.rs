//! Figure 7: Public BI compression ratios for "proprietary" column stores
//! (replaced by published-design proxies, see `proxies`), Parquet variants,
//! and BtrBlocks.

use crate::formats::Format;
use crate::proxies;
use crate::Table;
use btr_datagen::pbi;

/// Regenerates Figure 7.
pub fn run(rows: usize, seed: u64) -> String {
    let rel = btr_datagen::dataset_relation(pbi::registry(rows, seed));
    let unc = rel.heap_size() as f64;
    let mut table = Table::new(&["system", "compression ratio"]);

    let mut entry = |name: &str, size: usize| {
        table.row(vec![name.to_string(), format!("{:.2}", unc / size.max(1) as f64)]);
    };

    entry("datablocks-like (A)", proxies::datablocks_size(&rel));
    entry("sqlserver-like (B)", proxies::sqlserver_size(&rel));
    for fmt in Format::table2_lineup() {
        entry(fmt.name(), fmt.compress(&rel).len());
    }
    format!(
        "Figure 7: Public-BI-like compression ratios; proprietary systems A-D are \
         replaced by open proxies of their published designs (see DESIGN.md)\n\n{}",
        table.render()
    )
}
