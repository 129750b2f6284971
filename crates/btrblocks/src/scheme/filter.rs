//! Predicate evaluation on compressed blocks.
//!
//! The paper's related-work discussion (§7) notes that while BtrBlocks
//! optimizes for raw decompression speed, it "can, in principle, also support
//! processing compressed data if the used schemes support it". This module
//! implements that extension for the schemes where it pays off:
//!
//! * **OneValue** — the predicate is decided once for the whole block.
//! * **RLE** — the predicate runs per *run* and the verdict is replicated.
//! * **Dictionary / Dict+FSST** — the predicate runs once per *distinct*
//!   value; the code sequence is then mapped through a verdict table.
//! * **Frequency** — decided once for the top value, per-value only for the
//!   exceptions.
//! * everything else — falls back to decompress-then-filter, so the API is
//!   total over all blocks.
//!
//! The entry points evaluate an equality or range predicate against one
//! compressed block and return the matching row positions as a Roaring
//! bitmap, without materializing the decompressed column when a fast path
//! applies. The expression engine (crate `btr-expr`) builds its leaf kernels
//! on top of these entry points.

use crate::block::decompress_block_into;
use crate::config::Config;
use crate::scheme::fixed::{self, Value};
use crate::scheme::{self, SchemeCode};
use crate::scratch::Scratch;
use crate::types::{CmpOp, ColumnType, DecodedColumn, Literal};
use crate::writer::Reader;
use crate::{Error, Result};
use btr_roaring::RoaringBitmap;

/// Whether [`filter_block`] has a compressed-domain fast path for this
/// `(type, scheme)` pair, i.e. evaluates the predicate without materializing
/// the full block. Scan planners use this to report how much of a scan ran
/// on compressed data versus the decompress-then-filter fallback.
pub fn has_fast_path(ty: ColumnType, code: SchemeCode) -> bool {
    match ty {
        ColumnType::Integer | ColumnType::Double => matches!(
            code,
            SchemeCode::OneValue | SchemeCode::Rle | SchemeCode::Dict | SchemeCode::Frequency
        ),
        ColumnType::String => matches!(
            code,
            SchemeCode::OneValue | SchemeCode::Dict | SchemeCode::DictFsst
        ),
    }
}

/// Evaluates `op(literal)` over an already-decoded block (e.g. one served
/// from a decoded-block cache), returning matching block-relative positions.
/// The decoded-data counterpart of [`filter_block`].
pub fn filter_decoded(col: &DecodedColumn, op: CmpOp, literal: &Literal) -> Result<RoaringBitmap> {
    match (col, literal) {
        (DecodedColumn::Int(v), Literal::Int(l)) => {
            Ok(positions_where(v.iter().map(|x| op.matches(x, l))))
        }
        (DecodedColumn::Double(v), Literal::Double(l)) => {
            Ok(positions_where(v.iter().map(|x| op.matches(x, l))))
        }
        (DecodedColumn::Str(views), Literal::Str(l)) => Ok(positions_where(
            (0..views.len()).map(|i| op.matches(&views.get(i), &l.as_slice())),
        )),
        _ => Err(Error::Corrupt("predicate literal type mismatch")),
    }
}

/// Evaluates `op(literal)` over one compressed block, returning matching row
/// positions (block-relative).
///
/// Every path validates the block exactly as [`decompress_block_into`] does
/// (frame cap, run totals, dictionary code range, trailing bytes): a block
/// the decoder rejects is rejected here with the same error, never answered.
pub fn filter_block(
    bytes: &[u8],
    ty: ColumnType,
    op: CmpOp,
    literal: &Literal,
    cfg: &Config,
) -> Result<RoaringBitmap> {
    let mut r = Reader::new(bytes);
    let (code, count) = scheme::read_frame_header(&mut r, cfg)?;
    // One scratch per call: every cascade level below leases from it.
    let mut scratch = Scratch::new();
    let fast = match (ty, literal) {
        (ColumnType::Integer, Literal::Int(lit)) => {
            filter_fixed(&mut r, code, count, op, *lit, cfg, &scratch)?
        }
        (ColumnType::Double, Literal::Double(lit)) => {
            filter_fixed(&mut r, code, count, op, *lit, cfg, &scratch)?
        }
        (ColumnType::String, Literal::Str(lit)) => filter_str(&mut r, code, count, op, lit)?,
        _ => return Err(Error::Corrupt("predicate literal type mismatch")),
    };
    match fast {
        Some(_) if !r.rest().is_empty() => Err(Error::Corrupt("trailing bytes after block")),
        Some(matches) => Ok(matches),
        // No compressed-domain kernel for this scheme: decompress then filter.
        None => {
            let mut decoded = scratch.lease_decoded(ty);
            decompress_block_into(bytes, ty, cfg, &mut scratch, &mut decoded)?;
            filter_decoded(&decoded, op, literal)
        }
    }
}

fn positions_where(verdicts: impl Iterator<Item = bool>) -> RoaringBitmap {
    RoaringBitmap::from_sorted_iter(
        verdicts
            .enumerate()
            // lint: allow(cast) row positions are < count, which came off a u32 frame header
            .filter_map(|(i, m)| m.then_some(i as u32)),
    )
}

fn all_or_none(count: usize, matched: bool) -> RoaringBitmap {
    if matched {
        // lint: allow(cast) count came off a u32 frame header and is capped by max_block_values
        RoaringBitmap::from_sorted_iter(0..count as u32)
    } else {
        RoaringBitmap::new()
    }
}

/// Expands per-run verdicts to per-row positions in O(runs): matching runs
/// become Roaring run-container ranges directly — the whole point of
/// evaluating on compressed data. `lengths` come validated from
/// `rle::read_runs_into` (they sum to the frame's u32 count).
fn expand_runs(verdicts: impl Iterator<Item = bool>, lengths: &[u32]) -> RoaringBitmap {
    let mut pos = 0u32;
    let mut ranges = Vec::new();
    for (v, &len) in verdicts.zip(lengths) {
        if v {
            ranges.push(pos..pos + len);
        }
        pos += len;
    }
    RoaringBitmap::from_sorted_ranges(ranges)
}

/// Maps a dictionary block's decoded code sequence through the
/// per-dictionary-entry verdict table; a short sequence or a code outside the
/// table is the same corruption the decoder reports.
fn positions_of_codes(codes: &[i32], count: usize, verdict: &[bool]) -> Result<RoaringBitmap> {
    if codes.len() != count {
        return Err(Error::Corrupt("dict code count mismatch"));
    }
    let mut in_range = true;
    let matches = positions_where(codes.iter().map(|&c| {
        let v = usize::try_from(c).ok().and_then(|c| verdict.get(c));
        in_range &= v.is_some();
        v.copied().unwrap_or(false)
    }));
    if in_range {
        Ok(matches)
    } else {
        Err(Error::Corrupt("dict code out of range"))
    }
}

/// Flips the exception rows whose verdict differs from the top value's.
/// Mirrors the decoder's checks: one exception per bitmap position, every
/// position inside the block.
fn patch_exceptions(
    count: usize,
    top_matches: bool,
    bitmap: &RoaringBitmap,
    exception_matches: impl ExactSizeIterator<Item = bool>,
) -> Result<RoaringBitmap> {
    if bitmap.cardinality() as usize != exception_matches.len() {
        return Err(Error::Corrupt("frequency exception count mismatch"));
    }
    let mut out = all_or_none(count, top_matches);
    for (pos, matches) in bitmap.iter().zip(exception_matches) {
        if pos as usize >= count {
            return Err(Error::Corrupt("frequency exception position out of range"));
        }
        if matches != top_matches {
            if top_matches {
                out.remove(pos);
            } else {
                out.insert(pos);
            }
        }
    }
    Ok(out)
}

/// The integer and double compressed-domain kernels; `None` = this scheme
/// has none.
fn filter_fixed<V: Value>(
    r: &mut Reader<'_>,
    code: SchemeCode,
    count: usize,
    op: CmpOp,
    lit: V,
    cfg: &Config,
    scratch: &Scratch,
) -> Result<Option<RoaringBitmap>> {
    Ok(Some(match code {
        SchemeCode::OneValue => all_or_none(count, op.matches(&r.value()?, &lit)),
        SchemeCode::Rle => {
            let (mut values, mut lengths) = (Vec::new(), Vec::new());
            fixed::rle::read_runs_into(r, count, cfg, scratch, &mut values, &mut lengths)?;
            expand_runs(values.iter().map(|v| op.matches(v, &lit)), &lengths)
        }
        SchemeCode::Dict => {
            let dict_len = r.u32()? as usize;
            let mut dict = Vec::<V>::new();
            r.vec_into(dict_len, &mut dict)?;
            let verdict: Vec<bool> = dict.iter().map(|v| op.matches(v, &lit)).collect();
            let mut codes = Vec::new();
            scheme::decompress_into(r, cfg, scratch, &mut codes)?;
            positions_of_codes(&codes, count, &verdict)?
        }
        SchemeCode::Frequency => {
            let top: V = r.value()?;
            let bitmap_len = r.u32()? as usize;
            let bitmap = RoaringBitmap::deserialize(r.take(bitmap_len)?)?;
            let mut exceptions = Vec::<V>::new();
            scheme::decompress_into(r, cfg, scratch, &mut exceptions)?;
            let verdicts = exceptions.iter().map(|v| op.matches(v, &lit));
            patch_exceptions(count, op.matches(&top, &lit), &bitmap, verdicts)?
        }
        _ => return Ok(None),
    }))
}

/// The string compressed-domain kernel: OneValue decides once per block.
/// Dictionary blocks decode straight to views over the (tiny) dictionary
/// pool — no string bytes are copied — which is the decode path itself, so
/// they share the fallback.
fn filter_str(
    r: &mut Reader<'_>,
    code: SchemeCode,
    count: usize,
    op: CmpOp,
    lit: &[u8],
) -> Result<Option<RoaringBitmap>> {
    if code != SchemeCode::OneValue {
        return Ok(None);
    }
    let len = r.u32()? as usize;
    let value = r.take(len)?;
    Ok(Some(all_or_none(count, op.matches(&value, &lit))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{compress_block_with, BlockRef};
    use crate::types::{ColumnData, StringArena};

    fn reference_filter(data: &ColumnData, op: CmpOp, lit: &Literal) -> Vec<u32> {
        match (data, lit) {
            (ColumnData::Int(v), Literal::Int(l)) => v
                .iter()
                .enumerate()
                .filter_map(|(i, x)| op.matches(x, l).then_some(i as u32))
                .collect(),
            (ColumnData::Double(v), Literal::Double(l)) => v
                .iter()
                .enumerate()
                .filter_map(|(i, x)| op.matches(x, l).then_some(i as u32))
                .collect(),
            (ColumnData::Str(a), Literal::Str(l)) => (0..a.len())
                .filter_map(|i| op.matches(&a.get(i), &l.as_slice()).then_some(i as u32))
                .collect(),
            _ => panic!("type mismatch"),
        }
    }

    fn check_all_schemes(data: ColumnData, schemes: &[SchemeCode], op: CmpOp, lit: Literal) {
        let cfg = Config::default();
        let expected = reference_filter(&data, op, &lit);
        for &code in schemes {
            let bytes = match &data {
                ColumnData::Int(v) => compress_block_with(code, BlockRef::Int(v), &cfg),
                ColumnData::Double(v) => compress_block_with(code, BlockRef::Double(v), &cfg),
                ColumnData::Str(a) => compress_block_with(code, BlockRef::Str(a), &cfg),
            };
            let got = filter_block(&bytes, data.column_type(), op, &lit, &cfg).unwrap();
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                expected,
                "scheme {code:?}, op {op:?}"
            );
        }
    }

    #[test]
    fn int_predicates_across_schemes() {
        let values: Vec<i32> = (0..5_000).map(|i| (i / 100) % 7).collect();
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge] {
            check_all_schemes(
                ColumnData::Int(values.clone()),
                &[
                    SchemeCode::Uncompressed,
                    SchemeCode::Rle,
                    SchemeCode::Dict,
                    SchemeCode::Frequency,
                    SchemeCode::FastPfor,
                    SchemeCode::FastBp128,
                ],
                op,
                Literal::Int(3),
            );
        }
    }

    #[test]
    fn int_onevalue_block() {
        check_all_schemes(
            ColumnData::Int(vec![5; 1000]),
            &[SchemeCode::OneValue],
            CmpOp::Eq,
            Literal::Int(5),
        );
        check_all_schemes(
            ColumnData::Int(vec![5; 1000]),
            &[SchemeCode::OneValue],
            CmpOp::Gt,
            Literal::Int(5),
        );
    }

    #[test]
    fn double_predicates_across_schemes() {
        let values: Vec<f64> = (0..4_000).map(|i| ((i * 3) % 50) as f64 * 0.25).collect();
        for op in [CmpOp::Eq, CmpOp::Le, CmpOp::Gt] {
            check_all_schemes(
                ColumnData::Double(values.clone()),
                &[
                    SchemeCode::Uncompressed,
                    SchemeCode::Rle,
                    SchemeCode::Dict,
                    SchemeCode::Frequency,
                    SchemeCode::Pseudodecimal,
                ],
                op,
                Literal::Double(5.25),
            );
        }
    }

    #[test]
    fn nan_never_matches() {
        let values = vec![f64::NAN, 1.0, f64::NAN];
        check_all_schemes(
            ColumnData::Double(values),
            &[SchemeCode::Uncompressed],
            CmpOp::Eq,
            Literal::Double(f64::NAN),
        );
    }

    #[test]
    fn string_predicates_across_schemes() {
        let strings: Vec<String> = (0..3_000).map(|i| format!("city-{:02}", (i / 37) % 20)).collect();
        let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
        let arena = StringArena::from_strs(&refs);
        for op in [CmpOp::Eq, CmpOp::Lt] {
            check_all_schemes(
                ColumnData::Str(arena.clone()),
                &[
                    SchemeCode::Uncompressed,
                    SchemeCode::Dict,
                    SchemeCode::DictFsst,
                    SchemeCode::Fsst,
                ],
                op,
                Literal::Str(b"city-07".to_vec()),
            );
        }
    }

    #[test]
    fn type_mismatch_is_error() {
        let cfg = Config::default();
        let bytes = compress_block_with(SchemeCode::Uncompressed, BlockRef::Int(&[1, 2]), &cfg);
        assert!(filter_block(&bytes, ColumnType::Integer, CmpOp::Eq, &Literal::Double(1.0), &cfg).is_err());
    }

    #[test]
    fn filter_decoded_matches_filter_block() {
        use crate::block::decompress_block;
        let cfg = Config::default();
        let values: Vec<i32> = (0..3_000).map(|i| (i * 7) % 40).collect();
        let bytes =
            compress_block_with(SchemeCode::Uncompressed, BlockRef::Int(&values), &cfg);
        let decoded = decompress_block(&bytes, ColumnType::Integer, &cfg).unwrap();
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge] {
            let via_block =
                filter_block(&bytes, ColumnType::Integer, op, &Literal::Int(13), &cfg).unwrap();
            let via_decoded = filter_decoded(&decoded, op, &Literal::Int(13)).unwrap();
            assert_eq!(
                via_block.iter().collect::<Vec<_>>(),
                via_decoded.iter().collect::<Vec<_>>()
            );
        }
        // Type mismatch is a typed error, not a panic.
        assert!(filter_decoded(&decoded, CmpOp::Eq, &Literal::Double(1.0)).is_err());
    }

    #[test]
    fn three_level_cascade_matches_filter_decoded() {
        // RLE root -> Dictionary run values -> bit-packed code sequence: the
        // one per-call scratch is leased from at every level of the cascade.
        let cfg = Config::default();
        let palette: Vec<i32> = (0..16).map(|i| 1_000_003 * (i * i - 40)).collect();
        let mut rng = 0x9E37_79B9u32;
        let mut values = Vec::new();
        while values.len() < 60_000 {
            rng ^= rng << 13;
            rng ^= rng >> 17;
            rng ^= rng << 5;
            let run = 2 + (rng >> 8) as usize % 9;
            values.extend(std::iter::repeat_n(palette[rng as usize % 16], run));
        }
        let bytes = compress_block_with(SchemeCode::Rle, BlockRef::Int(&values), &cfg);
        // Frame header (5) + run count (4), then the run-values child frame;
        // its payload is dict_len + 16 entries, then the code-sequence frame.
        assert_eq!(bytes[0], SchemeCode::Rle.as_u8());
        assert_eq!(bytes[9], SchemeCode::Dict.as_u8());
        let codes_frame = bytes[9 + 5 + 4 + 16 * 4];
        assert!(
            codes_frame == SchemeCode::FastBp128.as_u8() || codes_frame == SchemeCode::FastPfor.as_u8(),
            "code sequence should bit-pack, got scheme {codes_frame}"
        );
        let decoded = crate::block::decompress_block(&bytes, ColumnType::Integer, &cfg).unwrap();
        for (op, lit) in [(CmpOp::Eq, palette[3]), (CmpOp::Lt, 0), (CmpOp::Ge, palette[9])] {
            let lit = Literal::Int(lit);
            let fast = filter_block(&bytes, ColumnType::Integer, op, &lit, &cfg).unwrap();
            let slow = filter_decoded(&decoded, op, &lit).unwrap();
            assert_eq!(fast.iter().collect::<Vec<_>>(), slow.iter().collect::<Vec<_>>(), "{op:?}");
            assert!(!fast.is_empty() && (fast.cardinality() as usize) < values.len());
        }
    }

    #[test]
    fn fast_path_table_matches_module_contract() {
        // The module docs promise compressed-domain evaluation for exactly
        // these scheme/type pairs.
        assert!(has_fast_path(ColumnType::Integer, SchemeCode::Rle));
        assert!(has_fast_path(ColumnType::Integer, SchemeCode::Frequency));
        assert!(has_fast_path(ColumnType::Double, SchemeCode::Dict));
        assert!(has_fast_path(ColumnType::String, SchemeCode::DictFsst));
        assert!(!has_fast_path(ColumnType::Integer, SchemeCode::FastPfor));
        assert!(!has_fast_path(ColumnType::String, SchemeCode::Fsst));
        assert!(!has_fast_path(ColumnType::Double, SchemeCode::Pseudodecimal));
    }

    #[test]
    fn frequency_fast_path_with_matching_top() {
        // Top value matches the predicate; exceptions partially do.
        let mut values = vec![10i32; 2_000];
        for i in (0..2_000).step_by(37) {
            values[i] = i as i32;
        }
        check_all_schemes(
            ColumnData::Int(values),
            &[SchemeCode::Frequency],
            CmpOp::Ge,
            Literal::Int(10),
        );
    }

    #[test]
    fn cmp_op_flip_is_involutive_and_correct() {
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(op.flip().flip(), op);
            for (a, b) in [(1, 2), (2, 1), (3, 3)] {
                assert_eq!(op.matches(&a, &b), op.flip().matches(&b, &a));
            }
        }
    }
}
