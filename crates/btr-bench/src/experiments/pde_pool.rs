//! §6.5 (second table): Pseudodecimal vs the general-purpose schemes inside
//! BtrBlocks — BP, Dictionary, RLE and PDE, each in a fixed two-level cascade
//! whose integer outputs are always FastBP128-compressed.

use crate::Table;
use btr_datagen::pbi;
use btrblocks::scheme::compress_with_into;
use btrblocks::{ColumnData, Config, SchemeCode, Scratch};

/// "Non-cascading FastBP128" on doubles: bit-pack the raw IEEE 754 words by
/// splitting each double into two 32-bit halves (the paper's sanity check
/// that bit-packing should rarely help on floating-point data).
pub fn bp_on_doubles_size(values: &[f64]) -> usize {
    let mut hi = Vec::with_capacity(values.len());
    let mut lo = Vec::with_capacity(values.len());
    for &v in values {
        let bits = v.to_bits();
        hi.push((bits >> 32) as u32);
        lo.push((bits & 0xFFFF_FFFF) as u32);
    }
    let hi_words = btr_bitpacking::bp128::encode(&hi);
    let lo_words = btr_bitpacking::bp128::encode(&lo);
    (hi_words.len() + lo_words.len()) * 4
}

fn fixed_cascade_size(root: SchemeCode, values: &[f64]) -> usize {
    // The root is forced; children may only use FastBP128 (or stay raw) —
    // the paper's strictly two-level cascade. Without this, RLE's double
    // value array would recursively RLE itself, which the paper's setup
    // cannot do.
    let cfg = Config::default().with_pool(&[SchemeCode::FastBp128]);
    let mut out = Vec::new();
    compress_with_into(root, values, 2, &cfg, &Scratch::new(), &mut out);
    out.len()
}

/// Regenerates the §6.5 inline comparison table.
pub fn run(rows: usize, seed: u64) -> String {
    let mut table = Table::new(&["column", "BP", "Dict", "RLE", "PDE"]);
    for col in pbi::table3_columns(rows, seed) {
        let ColumnData::Double(values) = &col.data else {
            unreachable!();
        };
        let raw = values.len() * 8;
        let r = |size: usize| format!("{:.1}", raw as f64 / size.max(1) as f64);
        table.row(vec![
            col.full_name(),
            r(bp_on_doubles_size(values)),
            r(fixed_cascade_size(SchemeCode::Dict, values)),
            r(fixed_cascade_size(SchemeCode::Rle, values)),
            r(fixed_cascade_size(SchemeCode::Pseudodecimal, values)),
        ]);
    }
    format!(
        "Section 6.5: PDE vs in-pool schemes, fixed two-level cascades (outputs \
         always FastBP128)\n\n{}",
        table.render()
    )
}
