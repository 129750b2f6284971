//! Table 3: Pseudodecimal Encoding vs FPC / Gorilla / Chimp / Chimp128 on
//! the large Public BI double columns.
//!
//! As in the paper, PDE runs in a *fixed two-level cascade*: Pseudodecimal
//! first, and every integer output always compressed with FastBP128 — so the
//! comparison isolates the scheme rather than the whole selection machinery.

use crate::Table;
use btr_datagen::pbi;
use btr_float::FloatCodec;
use btrblocks::scheme::compress_with_into;
use btrblocks::{ColumnData, Config, EncodeScratch, SchemeCode};

/// Compressed size of the PDE→FastBP128 fixed cascade.
pub fn pde_fastbp_size(values: &[f64]) -> usize {
    let cfg = Config::default().with_pool(&[SchemeCode::FastBp128]);
    let (mut scratch, mut out) = (EncodeScratch::new(), Vec::new());
    compress_with_into(SchemeCode::Pseudodecimal, values, 2, &cfg, &mut scratch, &mut out);
    out.len()
}

/// Regenerates Table 3.
pub fn run(rows: usize, seed: u64) -> String {
    let mut table = Table::new(&["column", "FPC", "Gorilla", "Chimp", "Chimp128", "PDE"]);
    for col in pbi::table3_columns(rows, seed) {
        let ColumnData::Double(values) = &col.data else {
            unreachable!("table 3 columns are doubles");
        };
        let raw = values.len() * 8;
        let mut row = vec![col.full_name()];
        for codec in FloatCodec::ALL {
            let size = codec.compress(values).len();
            row.push(format!("{:.1}", raw as f64 / size.max(1) as f64));
        }
        let pde = pde_fastbp_size(values);
        row.push(format!("{:.1}", raw as f64 / pde.max(1) as f64));
        table.row(row);
    }
    format!(
        "Table 3: compression ratios of Pseudodecimal Encoding (fixed PDE->FastBP128 \
         cascade) vs baseline double schemes\n\n{}",
        table.render()
    )
}
