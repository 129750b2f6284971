//! Table 2: data-type volume shares and compression ratios, Public BI vs
//! TPC-H, for the uncompressed baseline, three Parquet variants, and
//! BtrBlocks.

use crate::formats::Format;
use crate::Table;
use btr_datagen::{pbi, tpch, GenColumn};
use btrblocks::{ColumnData, Relation};

#[derive(Default, Clone, Copy)]
struct TypeAgg {
    uncompressed: usize,
    compressed: usize,
}

fn type_index(data: &ColumnData) -> usize {
    match data {
        ColumnData::Str(_) => 0,
        ColumnData::Double(_) => 1,
        ColumnData::Int(_) => 2,
    }
}

fn aggregate(cols: &[GenColumn], fmt: Format) -> [TypeAgg; 3] {
    let mut agg = [TypeAgg::default(); 3];
    for col in cols {
        let idx = type_index(&col.data);
        let rel = Relation::new(vec![btrblocks::Column::new(col.full_name(), col.data.clone())]);
        let compressed = fmt.compress(&rel).len();
        agg[idx].uncompressed += rel.heap_size();
        agg[idx].compressed += compressed;
    }
    agg
}

/// Regenerates Table 2.
pub fn run(rows: usize, seed: u64) -> String {
    let mut out = String::from("Table 2: data types by volume share and compression ratio\n\n");
    for (bench, cols) in [("PublicBI", pbi::registry(rows, seed)), ("TPC-H", tpch::registry(rows, seed))] {
        let total_unc: usize = cols.iter().map(|c| c.data.heap_size()).sum();
        let mut table = Table::new(&[
            "format", "str-share%", "str-compr", "dbl-share%", "dbl-compr", "int-share%",
            "int-compr", "combined-compr",
        ]);
        // Uncompressed row: shares of raw volume, no ratios.
        let mut raw = [0usize; 3];
        for c in &cols {
            raw[type_index(&c.data)] += c.data.heap_size();
        }
        table.row(vec![
            "uncompressed".into(),
            format!("{:.1}", 100.0 * raw[0] as f64 / total_unc as f64),
            "-".into(),
            format!("{:.1}", 100.0 * raw[1] as f64 / total_unc as f64),
            "-".into(),
            format!("{:.1}", 100.0 * raw[2] as f64 / total_unc as f64),
            "-".into(),
            "-".into(),
        ]);
        for fmt in Format::table2_lineup() {
            let agg = aggregate(&cols, fmt);
            let total_comp: usize = agg.iter().map(|a| a.compressed).sum();
            let mut row = vec![fmt.name().to_string()];
            for a in &agg {
                row.push(format!("{:.1}", 100.0 * a.compressed as f64 / total_comp as f64));
                row.push(format!("{:.2}", a.uncompressed as f64 / a.compressed.max(1) as f64));
            }
            row.push(format!("{:.2}", total_unc as f64 / total_comp.max(1) as f64));
            table.row(row);
        }
        out.push_str(&format!("== {bench} ({} columns, {} rows each) ==\n", cols.len(), rows));
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}
