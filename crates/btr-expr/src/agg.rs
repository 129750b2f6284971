//! Aggregate pushdown: `COUNT` / `SUM` / `MIN` / `MAX` over one column.
//!
//! An [`AggState`] folds blocks in row order through a lattice of paths,
//! cheapest first. Each path reports whether it *answered* the block; the
//! caller falls through to the next:
//!
//! | path                  | `COUNT` | `MIN`/`MAX` int      | `MIN`/`MAX` double        | `SUM`                 |
//! |-----------------------|---------|----------------------|---------------------------|-----------------------|
//! | zone map              | always  | always               | only NaN-free zones       | never                 |
//! | compressed (OneValue) | always  | always               | always (NaN rows ignored) | always                |
//! | compressed (RLE)      | always  | always               | always (NaN rows ignored) | always                |
//! | decoded fold          | always  | always               | always (NaN rows ignored) | always                |
//!
//! String columns support `MIN`/`MAX` via the decoded fold only
//! (dictionary order is not value order, so neither zones nor the
//! compressed domain can answer); `SUM` over strings is a compile-time
//! type error.
//!
//! Exactness contract (pinned by the aggregate oracle): every path is
//! value-identical to folding the fully decoded column row by row in
//! ascending order. Double sums therefore *add* — the OneValue/RLE paths
//! repeat the addition per row rather than multiplying, because repeated
//! IEEE 754 addition and multiplication round differently. Int sums fold
//! into `i64` with wrapping addition (and may use exact multiplication,
//! since integer arithmetic has no rounding). `MIN`/`MAX` over doubles
//! ignore NaN rows, matching the zone maps' NaN-free min/max semantics.

use crate::plan::ExprError;
use crate::selection::Selection;
use btrblocks::scheme::fixed::rle;
use btrblocks::scheme::{self, SchemeCode};
use btrblocks::writer::Reader;
use btrblocks::{BlockZone, ColumnType, Config, DecodedColumn, Error, Scratch};

/// Which aggregate to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Row count.
    Count,
    /// Sum (`i64` wrapping for ints, IEEE 754 for doubles).
    Sum,
    /// Minimum (NaN rows ignored; byte-wise for strings).
    Min,
    /// Maximum (NaN rows ignored; byte-wise for strings).
    Max,
}

/// An aggregate over a named column.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Which aggregate.
    pub kind: AggKind,
    /// Column name (resolved by the scan planner).
    pub column: String,
}

impl Aggregate {
    /// `kind(column)`.
    pub fn new(kind: AggKind, column: impl Into<String>) -> Aggregate {
        Aggregate {
            kind,
            column: column.into(),
        }
    }

    /// `COUNT(column)`.
    pub fn count(column: impl Into<String>) -> Aggregate {
        Aggregate::new(AggKind::Count, column)
    }

    /// `SUM(column)`.
    pub fn sum(column: impl Into<String>) -> Aggregate {
        Aggregate::new(AggKind::Sum, column)
    }

    /// `MIN(column)`.
    pub fn min(column: impl Into<String>) -> Aggregate {
        Aggregate::new(AggKind::Min, column)
    }

    /// `MAX(column)`.
    pub fn max(column: impl Into<String>) -> Aggregate {
        Aggregate::new(AggKind::Max, column)
    }
}

/// A finished aggregate value. `None` inside `Min`/`Max` means no
/// contributing rows (empty scan, or all rows NaN).
#[derive(Debug, Clone, PartialEq)]
pub enum AggValue {
    /// Row count.
    Count(u64),
    /// Integer sum (wrapping `i64`).
    SumInt(i64),
    /// Double sum (IEEE 754, ascending row order).
    SumDouble(f64),
    /// Integer minimum.
    MinInt(Option<i32>),
    /// Integer maximum.
    MaxInt(Option<i32>),
    /// Double minimum over non-NaN rows.
    MinDouble(Option<f64>),
    /// Double maximum over non-NaN rows.
    MaxDouble(Option<f64>),
    /// Byte-wise string minimum.
    MinStr(Option<Vec<u8>>),
    /// Byte-wise string maximum.
    MaxStr(Option<Vec<u8>>),
}

#[derive(Debug, Clone)]
enum Acc {
    Count(u64),
    SumInt(i64),
    SumDouble(f64),
    MinInt(Option<i32>),
    MaxInt(Option<i32>),
    MinDouble(Option<f64>),
    MaxDouble(Option<f64>),
    MinStr(Option<Vec<u8>>),
    MaxStr(Option<Vec<u8>>),
}

/// A running aggregate accumulator for one `(kind, column type)` pair.
#[derive(Debug, Clone)]
pub struct AggState {
    acc: Acc,
}

impl AggState {
    /// Creates the accumulator; `SUM` over strings is a type error.
    pub fn new(kind: AggKind, ty: ColumnType) -> Result<AggState, ExprError> {
        let acc = match (kind, ty) {
            (AggKind::Count, _) => Acc::Count(0),
            (AggKind::Sum, ColumnType::Integer) => Acc::SumInt(0),
            (AggKind::Sum, ColumnType::Double) => Acc::SumDouble(0.0),
            (AggKind::Sum, ColumnType::String) => {
                return Err(ExprError::TypeMismatch("SUM over a string column"))
            }
            (AggKind::Min, ColumnType::Integer) => Acc::MinInt(None),
            (AggKind::Max, ColumnType::Integer) => Acc::MaxInt(None),
            (AggKind::Min, ColumnType::Double) => Acc::MinDouble(None),
            (AggKind::Max, ColumnType::Double) => Acc::MaxDouble(None),
            (AggKind::Min, ColumnType::String) => Acc::MinStr(None),
            (AggKind::Max, ColumnType::String) => Acc::MaxStr(None),
        };
        Ok(AggState { acc })
    }

    /// Tries to fold a whole `rows`-row block from its zone map alone.
    /// Returns whether the block was answered (`false` ⇒ try the compressed
    /// domain or decode).
    pub fn fold_zone(&mut self, zone: &BlockZone, rows: u32) -> bool {
        if rows == 0 {
            // An empty block contributes nothing, whatever its zone says.
            return true;
        }
        match self.zone_answer(zone) {
            None => false,
            Some(ZoneAnswer::Rows) => self.fold_count(u64::from(rows)),
            Some(ZoneAnswer::Int(v)) => {
                self.fold_int_run(v, 1);
                true
            }
            Some(ZoneAnswer::Double(v)) => {
                self.fold_double_run(v, 1);
                true
            }
        }
    }

    /// What a zone map alone says about a block for this aggregate; `None`
    /// when it says nothing [`AggState::fold_zone`] can use.
    fn zone_answer(&self, zone: &BlockZone) -> Option<ZoneAnswer> {
        match (&self.acc, zone) {
            (Acc::Count(_), _) => Some(ZoneAnswer::Rows),
            (Acc::MinInt(_), BlockZone::Int { min, .. }) => Some(ZoneAnswer::Int(*min)),
            (Acc::MaxInt(_), BlockZone::Int { max, .. }) => Some(ZoneAnswer::Int(*max)),
            // A NaN-bearing double zone collapses degenerate cases (e.g. an
            // all-NaN block reports min = max = 0.0); only NaN-free zones
            // carry trustworthy extrema.
            (Acc::MinDouble(_), BlockZone::Double { min, has_nan, .. }) if !has_nan => {
                Some(ZoneAnswer::Double(*min))
            }
            (Acc::MaxDouble(_), BlockZone::Double { max, has_nan, .. }) if !has_nan => {
                Some(ZoneAnswer::Double(*max))
            }
            // Sums need every value; string zones carry no order stats.
            _ => None,
        }
    }

    /// Whether folding a `rows`-row block needs its values: `false` when
    /// [`AggState::fold_count`] answers it, or [`AggState::fold_zone`] does
    /// given the block's `zone`. A scan reads this to decide what to fetch
    /// before the fold runs.
    pub fn needs_values(&self, zone: Option<&BlockZone>, rows: u32) -> bool {
        let answered = matches!(self.acc, Acc::Count(_))
            || zone.is_some_and(|z| rows == 0 || self.zone_answer(z).is_some());
        !answered
    }

    /// Folds `rows` rows into a `COUNT`, which reads no value: the caller
    /// knows the rows from a zone map, a frame header or a selection's
    /// cardinality. Returns whether this is a `COUNT` (`false` ⇒ the
    /// aggregate needs values).
    pub fn fold_count(&mut self, rows: u64) -> bool {
        match &mut self.acc {
            Acc::Count(c) => {
                *c += rows;
                true
            }
            _ => false,
        }
    }

    /// Whether [`AggState::fold_compressed`] answers block `bytes` of a
    /// value-reading aggregate (anything but `COUNT`), from its frame header
    /// alone: the compressed rung's one declaration, read by the fold below
    /// and by a scan deciding whether to decode. An empty block always
    /// answers; otherwise OneValue and RLE frames of numeric columns do.
    pub fn folds_compressed(bytes: &[u8], ty: ColumnType, cfg: &Config) -> btrblocks::Result<bool> {
        let (code, count) = scheme::read_frame_header(&mut Reader::new(bytes), cfg)?;
        Ok(count == 0 || compressed_rung(code, ty))
    }

    /// Tries to fold a whole block in the compressed domain (the schemes
    /// [`AggState::folds_compressed`] names). Returns `Ok(false)` when the
    /// scheme doesn't support it (⇒ decode and use
    /// [`AggState::fold_decoded`]). Frames are validated exactly as the block
    /// decoder validates them *before* anything folds, so a block the decoder
    /// rejects is the same typed error here. The run arrays' cascades lease
    /// from the caller's `scratch`.
    pub fn fold_compressed(
        &mut self,
        bytes: &[u8],
        ty: ColumnType,
        cfg: &Config,
        scratch: &Scratch,
    ) -> btrblocks::Result<bool> {
        let mut r = Reader::new(bytes);
        let (code, count) = scheme::read_frame_header(&mut r, cfg)?;
        // The row count sits in every frame header.
        if self.fold_count(count as u64) {
            return Ok(true);
        }
        if count == 0 {
            return Ok(true);
        }
        if !compressed_rung(code, ty) {
            return Ok(false);
        }
        let end_of_block = |r: &Reader<'_>| match r.rest() {
            [] => Ok(()),
            _ => Err(Error::Corrupt("trailing bytes after block")),
        };
        if code == SchemeCode::OneValue {
            match ty {
                ColumnType::Integer => {
                    let v = r.i32()?;
                    end_of_block(&r)?;
                    self.fold_int_run(v, count);
                }
                _ => {
                    let v = r.f64()?;
                    end_of_block(&r)?;
                    self.fold_double_run(v, count);
                }
            }
            return Ok(true);
        }
        // RLE: the run values and lengths come from the scratch's pools.
        let mut values = scratch.lease_decoded(ty);
        let mut lengths = scratch.lease::<Vec<u32>>(0);
        let folded = match &mut values {
            DecodedColumn::Int(values) => {
                rle::read_runs_into(&mut r, count, cfg, scratch, values, &mut lengths)
                    .and_then(|()| end_of_block(&r))
                    .map(|()| {
                        for (&v, &len) in values.iter().zip(lengths.iter()) {
                            self.fold_int_run(v, len as usize);
                        }
                        true
                    })
            }
            DecodedColumn::Double(values) => {
                rle::read_runs_into(&mut r, count, cfg, scratch, values, &mut lengths)
                    .and_then(|()| end_of_block(&r))
                    .map(|()| {
                        for (&v, &len) in values.iter().zip(lengths.iter()) {
                            self.fold_double_run(v, len as usize);
                        }
                        true
                    })
            }
            // `compressed_rung` has no string scheme.
            DecodedColumn::Str(_) => Ok(false),
        };
        scratch.recycle(values);
        folded
    }

    fn fold_int_run(&mut self, v: i32, len: usize) {
        if len == 0 {
            return;
        }
        match &mut self.acc {
            Acc::SumInt(s) => {
                // Integer arithmetic is exact: a run folds as one wrapping
                // multiply-add, identical to `len` repeated additions.
                let run = i64::from(v).wrapping_mul(len as i64);
                *s = s.wrapping_add(run);
            }
            Acc::MinInt(m) => fold_min(m, v),
            Acc::MaxInt(m) => fold_max(m, v),
            _ => {}
        }
    }

    fn fold_double_run(&mut self, v: f64, len: usize) {
        if len == 0 {
            return;
        }
        match &mut self.acc {
            Acc::SumDouble(s) => {
                // NOT `v * len`: IEEE 754 addition and multiplication round
                // differently, and the contract is bitwise identity with the
                // decoded ascending-order fold.
                for _ in 0..len {
                    *s += v;
                }
            }
            Acc::MinDouble(m) if !v.is_nan() => fold_min(m, v),
            Acc::MaxDouble(m) if !v.is_nan() => fold_max(m, v),
            _ => {}
        }
    }

    /// Folds a decoded block, restricted to `sel` when given (the residual
    /// selection after filter evaluation). Rows fold in ascending order; the
    /// accumulator and column are matched once per block, not per row.
    pub fn fold_decoded(
        &mut self,
        col: &DecodedColumn,
        sel: Option<&Selection>,
    ) -> Result<(), ExprError> {
        match (&mut self.acc, col) {
            (Acc::Count(c), _) => each_row(col.len(), sel, |_| *c += 1),
            (Acc::SumInt(s), DecodedColumn::Int(v)) => {
                each(v, sel, |x| *s = s.wrapping_add(i64::from(x)))
            }
            (Acc::MinInt(m), DecodedColumn::Int(v)) => each(v, sel, |x| fold_min(m, x)),
            (Acc::MaxInt(m), DecodedColumn::Int(v)) => each(v, sel, |x| fold_max(m, x)),
            (Acc::SumDouble(s), DecodedColumn::Double(v)) => each(v, sel, |x| *s += x),
            (Acc::MinDouble(m), DecodedColumn::Double(v)) => each(v, sel, |x| {
                if !x.is_nan() {
                    fold_min(m, x);
                }
            }),
            (Acc::MaxDouble(m), DecodedColumn::Double(v)) => each(v, sel, |x| {
                if !x.is_nan() {
                    fold_max(m, x);
                }
            }),
            (Acc::MinStr(m), DecodedColumn::Str(views)) => each_row(views.len(), sel, |r| {
                let x = views.get(r);
                if m.as_deref().is_none_or(|cur| x < cur) {
                    *m = Some(x.to_vec());
                }
            }),
            (Acc::MaxStr(m), DecodedColumn::Str(views)) => each_row(views.len(), sel, |r| {
                let x = views.get(r);
                if m.as_deref().is_none_or(|cur| x > cur) {
                    *m = Some(x.to_vec());
                }
            }),
            // A block that contributes no row folds nothing, whatever it is.
            _ if sel.map_or(col.is_empty(), Selection::is_empty) => Ok(()),
            _ => Err(ExprError::TypeMismatch("aggregate/column type mismatch")),
        }
    }

    /// The finished value.
    pub fn value(&self) -> AggValue {
        match &self.acc {
            Acc::Count(c) => AggValue::Count(*c),
            Acc::SumInt(s) => AggValue::SumInt(*s),
            Acc::SumDouble(s) => AggValue::SumDouble(*s),
            Acc::MinInt(m) => AggValue::MinInt(*m),
            Acc::MaxInt(m) => AggValue::MaxInt(*m),
            Acc::MinDouble(m) => AggValue::MinDouble(*m),
            Acc::MaxDouble(m) => AggValue::MaxDouble(*m),
            Acc::MinStr(m) => AggValue::MinStr(m.clone()),
            Acc::MaxStr(m) => AggValue::MaxStr(m.clone()),
        }
    }
}

/// What [`AggState::zone_answer`] read off a zone map.
enum ZoneAnswer {
    /// A `COUNT`: the block's row count is the answer.
    Rows,
    /// An integer extreme, folded as a one-row run.
    Int(i32),
    /// A double extreme, folded as a one-row run.
    Double(f64),
}

/// The compressed rung: block schemes [`AggState::fold_compressed`] folds
/// without decoding.
fn compressed_rung(code: SchemeCode, ty: ColumnType) -> bool {
    matches!(code, SchemeCode::OneValue | SchemeCode::Rle) && ty != ColumnType::String
}

/// Calls `f` on the values of `v` that `sel` selects (all of them without
/// a selection), in ascending row order. A selected row past the block is
/// [`ExprError::RowOutOfRange`].
fn each<T: Copy>(v: &[T], sel: Option<&Selection>, mut f: impl FnMut(T)) -> Result<(), ExprError> {
    match sel {
        None => v.iter().for_each(|&x| f(x)),
        Some(s) => {
            for r in s.iter() {
                f(*v.get(r as usize).ok_or(ExprError::RowOutOfRange)?);
            }
        }
    }
    Ok(())
}

/// [`each`] over the row indices of a `len`-row block.
fn each_row(len: usize, sel: Option<&Selection>, mut f: impl FnMut(usize)) -> Result<(), ExprError> {
    match sel {
        None => (0..len).for_each(f),
        Some(s) => {
            for r in s.iter().map(|r| r as usize) {
                if r >= len {
                    return Err(ExprError::RowOutOfRange);
                }
                f(r);
            }
        }
    }
    Ok(())
}

fn fold_min<T: PartialOrd + Copy>(m: &mut Option<T>, v: T) {
    if m.is_none_or(|cur| v < cur) {
        *m = Some(v);
    }
}

fn fold_max<T: PartialOrd + Copy>(m: &mut Option<T>, v: T) {
    if m.is_none_or(|cur| v > cur) {
        *m = Some(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrblocks::block::compress_block_with;
    use btrblocks::{BlockRef, SchemeCode};

    #[test]
    fn zone_path_answers_minmax_and_count() {
        let zone = BlockZone::Int { min: -2, max: 9 };
        let mut min = AggState::new(AggKind::Min, ColumnType::Integer).unwrap();
        let mut max = AggState::new(AggKind::Max, ColumnType::Integer).unwrap();
        let mut count = AggState::new(AggKind::Count, ColumnType::Integer).unwrap();
        let mut sum = AggState::new(AggKind::Sum, ColumnType::Integer).unwrap();
        assert!(min.fold_zone(&zone, 4));
        assert!(max.fold_zone(&zone, 4));
        assert!(count.fold_zone(&zone, 4));
        assert!(!sum.fold_zone(&zone, 4), "sums need every value");
        assert_eq!(min.value(), AggValue::MinInt(Some(-2)));
        assert_eq!(max.value(), AggValue::MaxInt(Some(9)));
        assert_eq!(count.value(), AggValue::Count(4));
    }

    #[test]
    fn nan_zones_decline_minmax() {
        let values = vec![1.0, f64::NAN, 3.0];
        let zone = BlockZone::Double {
            min: 1.0,
            max: 3.0,
            has_nan: true,
        };
        let mut min = AggState::new(AggKind::Min, ColumnType::Double).unwrap();
        assert!(!min.fold_zone(&zone, 3), "NaN-bearing zone must decode");
        // The decoded fold ignores the NaN row.
        min.fold_decoded(&DecodedColumn::Double(values), None).unwrap();
        assert_eq!(min.value(), AggValue::MinDouble(Some(1.0)));
    }

    #[test]
    fn compressed_domain_matches_decoded_reference() {
        let cfg = Config::default();
        // A double whose repeated addition differs from multiplication, so
        // the exactness contract is actually exercised.
        let v = 0.1f64;
        let count = 1_000usize;
        let bytes = {
            let values = vec![v; count];
            compress_block_with(SchemeCode::OneValue, BlockRef::Double(&values), &cfg)
        };
        let mut sum = AggState::new(AggKind::Sum, ColumnType::Double).unwrap();
        assert!(sum.fold_compressed(&bytes, ColumnType::Double, &cfg, &Scratch::new()).unwrap());
        let mut reference = 0.0f64;
        for _ in 0..count {
            reference += v;
        }
        assert_eq!(sum.value(), AggValue::SumDouble(reference));
        assert_ne!(reference, v * count as f64, "test must discriminate");

        // RLE ints: exact multiply-add per run.
        let values: Vec<i32> = (0..2_000).map(|i| (i / 250) * 10).collect();
        let bytes = compress_block_with(SchemeCode::Rle, BlockRef::Int(&values), &cfg);
        let mut sum = AggState::new(AggKind::Sum, ColumnType::Integer).unwrap();
        assert!(sum.fold_compressed(&bytes, ColumnType::Integer, &cfg, &Scratch::new()).unwrap());
        let expected: i64 = values.iter().map(|&x| i64::from(x)).sum();
        assert_eq!(sum.value(), AggValue::SumInt(expected));

        // Bit-packed blocks have no compressed-domain path.
        let bytes = compress_block_with(SchemeCode::FastBp128, BlockRef::Int(&values), &cfg);
        let mut sum = AggState::new(AggKind::Sum, ColumnType::Integer).unwrap();
        assert!(!sum.fold_compressed(&bytes, ColumnType::Integer, &cfg, &Scratch::new()).unwrap());
    }

    // The decode/filter half of this contract (same blocks, same errors from
    // `decompress_block_into` and `filter_block`) is btrblocks'
    // `tests/corruption_corpus.rs`.
    #[test]
    fn tampered_blocks_fail_like_the_decoder_instead_of_folding() {
        use btrblocks::writer::WriteLe;
        let cfg = Config::default();
        let assert_rejected = |block: &[u8], ty: ColumnType, expected: Error| {
            let mut out = DecodedColumn::Int(Vec::new());
            let decoded = btrblocks::decompress_block_into(
                block,
                ty,
                &cfg,
                &mut Scratch::new(),
                &mut out,
            );
            assert_eq!(decoded.unwrap_err(), expected, "decoder");
            let mut sum = AggState::new(AggKind::Sum, ty).unwrap();
            assert_eq!(sum.fold_compressed(block, ty, &cfg, &Scratch::new()).unwrap_err(), expected, "fold");
            let untouched = AggState::new(AggKind::Sum, ty).unwrap();
            assert_eq!(sum.value(), untouched.value(), "nothing may fold before validation");
        };

        // Frame count stomped 3 -> 10: the runs no longer add up.
        let total = Error::Corrupt("RLE total length mismatch");
        let mut ints = compress_block_with(SchemeCode::Rle, BlockRef::Int(&[1, 1, 2]), &cfg);
        ints[1..5].copy_from_slice(&10u32.to_le_bytes());
        assert_rejected(&ints, ColumnType::Integer, total.clone());
        let mut doubles =
            compress_block_with(SchemeCode::Rle, BlockRef::Double(&[1.0, 1.0, 2.0]), &cfg);
        doubles[1..5].copy_from_slice(&10u32.to_le_bytes());
        assert_rejected(&doubles, ColumnType::Double, total);

        // Two run values, one run length: a `zip` would fold a truncated block.
        let mut short = vec![SchemeCode::Rle.as_u8()];
        short.put_u32(3);
        short.put_u32(2);
        short.put_u8(SchemeCode::Uncompressed.as_u8());
        short.put_u32(2);
        short.put_i32_slice(&[1, 2]);
        short.put_u8(SchemeCode::Uncompressed.as_u8());
        short.put_u32(1);
        short.put_i32_slice(&[3]);
        assert_rejected(
            &short,
            ColumnType::Integer,
            Error::Corrupt("RLE run array length mismatch"),
        );

        // A OneValue frame claiming 2^32-1 rows: rejected by the frame cap,
        // not folded four billion times.
        let mut huge = vec![SchemeCode::OneValue.as_u8()];
        huge.put_u32(u32::MAX);
        huge.put_f64(0.1);
        let started = std::time::Instant::now();
        assert_rejected(
            &huge,
            ColumnType::Double,
            Error::Corrupt("block claims more values than max_block_values"),
        );
        assert!(started.elapsed() < std::time::Duration::from_secs(1));

        let mut trailing = compress_block_with(SchemeCode::OneValue, BlockRef::Int(&[5; 8]), &cfg);
        trailing.push(0);
        assert_rejected(
            &trailing,
            ColumnType::Integer,
            Error::Corrupt("trailing bytes after block"),
        );
    }

    #[test]
    fn the_compressed_rung_is_what_the_fold_answers() {
        let cfg = Config::default();
        let scratch = Scratch::new();
        let ints: Vec<i32> = (0..3_000).map(|i| (i / 500) * 3).collect();
        let doubles: Vec<f64> = ints.iter().map(|&i| f64::from(i) * 0.5).collect();
        let strings = btrblocks::StringArena::from_strs(&["a", "a", "b", "b", "b"]);
        use SchemeCode::*;
        let cases = [
            (ColumnType::Integer, vec![Uncompressed, OneValue, Rle, Dict, Frequency, FastPfor, FastBp128]),
            (ColumnType::Double, vec![Uncompressed, OneValue, Rle, Dict, Frequency, Pseudodecimal]),
            (ColumnType::String, vec![Uncompressed, Dict, Fsst, DictFsst]),
        ];
        for (ty, codes) in cases {
            for code in codes {
                let block = match ty {
                    ColumnType::Integer => BlockRef::Int(&ints[..500]),
                    ColumnType::Double => BlockRef::Double(&doubles[..500]),
                    ColumnType::String => BlockRef::Str(&strings),
                };
                let bytes = compress_block_with(code, block, &cfg);
                let kind = if ty == ColumnType::String { AggKind::Max } else { AggKind::Sum };
                let mut state = AggState::new(kind, ty).unwrap();
                let folded = state.fold_compressed(&bytes, ty, &cfg, &scratch).unwrap();
                let declared = AggState::folds_compressed(&bytes, ty, &cfg).unwrap();
                assert_eq!(folded, declared, "{ty:?} {code:?}");
                assert_eq!(declared, matches!(code, OneValue | Rle), "{ty:?} {code:?}");
                assert!(state.needs_values(None, 500), "{ty:?} {code:?}");
            }
        }
    }

    #[test]
    fn needs_values_matches_the_zone_rung() {
        let int_zone = BlockZone::Int { min: -2, max: 9 };
        let nan_zone = BlockZone::Double { min: 1.0, max: 3.0, has_nan: true };
        let state = |kind, ty| AggState::new(kind, ty).unwrap();
        let count = state(AggKind::Count, ColumnType::String);
        assert!(!count.needs_values(None, 4), "COUNT reads no value");
        let min = state(AggKind::Min, ColumnType::Integer);
        assert!(min.needs_values(None, 4), "no zone, no answer");
        assert!(!min.needs_values(Some(&int_zone), 4));
        assert!(!min.needs_values(Some(&BlockZone::Str), 0), "an empty block folds nothing");
        assert!(state(AggKind::Sum, ColumnType::Integer).needs_values(Some(&int_zone), 4));
        assert!(state(AggKind::Min, ColumnType::Double).needs_values(Some(&nan_zone), 4));
        for (zone, rows) in [(&int_zone, 4), (&nan_zone, 4), (&BlockZone::Str, 0)] {
            for kind in [AggKind::Count, AggKind::Sum, AggKind::Min, AggKind::Max] {
                for ty in [ColumnType::Integer, ColumnType::Double] {
                    let mut s = state(kind, ty);
                    let needs = s.needs_values(Some(zone), rows);
                    assert_eq!(needs, !s.fold_zone(zone, rows), "{kind:?} {ty:?} {zone:?}");
                }
            }
        }
    }

    #[test]
    fn selected_fold_and_strings() {
        let arena = btrblocks::StringArena::from_strs(&["pear", "apple", "quince", "fig"]);
        let col = DecodedColumn::Str(btrblocks::StringViews::from_arena(&arena));
        let mut min = AggState::new(AggKind::Min, ColumnType::String).unwrap();
        let mut max = AggState::new(AggKind::Max, ColumnType::String).unwrap();
        let sel = Selection::from_bitmap(4, btr_roaring::RoaringBitmap::from_sorted_iter([0, 2, 3]));
        min.fold_decoded(&col, Some(&sel)).unwrap();
        max.fold_decoded(&col, Some(&sel)).unwrap();
        assert_eq!(min.value(), AggValue::MinStr(Some(b"fig".to_vec())));
        assert_eq!(max.value(), AggValue::MaxStr(Some(b"quince".to_vec())));

        assert!(AggState::new(AggKind::Sum, ColumnType::String).is_err());

        // Empty selection leaves the accumulator untouched.
        let mut min = AggState::new(AggKind::Min, ColumnType::Integer).unwrap();
        min.fold_decoded(&DecodedColumn::Int(vec![1, 2]), Some(&Selection::none(2)))
            .unwrap();
        assert_eq!(min.value(), AggValue::MinInt(None));
    }
}
