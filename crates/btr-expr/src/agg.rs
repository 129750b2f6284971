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
//! String columns support `COUNT`/`MIN`/`MAX` via the decoded fold only
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
        match (&mut self.acc, zone) {
            (Acc::Count(c), _) => {
                *c += u64::from(rows);
                true
            }
            (Acc::MinInt(m), BlockZone::Int { min, .. }) => {
                fold_min(m, *min);
                true
            }
            (Acc::MaxInt(m), BlockZone::Int { max, .. }) => {
                fold_max(m, *max);
                true
            }
            // A NaN-bearing double zone collapses degenerate cases (e.g. an
            // all-NaN block reports min = max = 0.0); only NaN-free zones
            // carry trustworthy extrema.
            (Acc::MinDouble(m), BlockZone::Double { min, has_nan, .. }) if !has_nan => {
                fold_min(m, *min);
                true
            }
            (Acc::MaxDouble(m), BlockZone::Double { max, has_nan, .. }) if !has_nan => {
                fold_max(m, *max);
                true
            }
            // Sums need every value; string zones carry no order stats.
            _ => false,
        }
    }

    /// Tries to fold a whole block in the compressed domain (OneValue and
    /// RLE frames). Returns `Ok(false)` when the scheme doesn't support it
    /// (⇒ decode and use [`AggState::fold_decoded`]). Frames are validated
    /// exactly as the block decoder validates them *before* anything folds,
    /// so a block the decoder rejects is the same typed error here.
    pub fn fold_compressed(
        &mut self,
        bytes: &[u8],
        ty: ColumnType,
        cfg: &Config,
    ) -> btrblocks::Result<bool> {
        let mut r = Reader::new(bytes);
        let (code, count) = scheme::read_frame_header(&mut r, cfg)?;
        if let Acc::Count(c) = &mut self.acc {
            // The row count sits in every frame header.
            *c += count as u64;
            return Ok(true);
        }
        if count == 0 {
            return Ok(true);
        }
        let end_of_block = |r: &Reader<'_>| match r.rest() {
            [] => Ok(()),
            _ => Err(Error::Corrupt("trailing bytes after block")),
        };
        // One scratch per call: the run arrays' cascades lease from it.
        let scratch = Scratch::new();
        let mut lengths = Vec::new();
        match (code, ty) {
            (SchemeCode::OneValue, ColumnType::Integer) => {
                let v = r.i32()?;
                end_of_block(&r)?;
                self.fold_int_run(v, count);
            }
            (SchemeCode::OneValue, ColumnType::Double) => {
                let v = r.f64()?;
                end_of_block(&r)?;
                self.fold_double_run(v, count);
            }
            (SchemeCode::Rle, ColumnType::Integer) => {
                let mut values = Vec::new();
                rle::read_runs_into::<i32>(&mut r, count, cfg, &scratch, &mut values, &mut lengths)?;
                end_of_block(&r)?;
                for (&v, &len) in values.iter().zip(&lengths) {
                    self.fold_int_run(v, len as usize);
                }
            }
            (SchemeCode::Rle, ColumnType::Double) => {
                let mut values = Vec::new();
                rle::read_runs_into::<f64>(&mut r, count, cfg, &scratch, &mut values, &mut lengths)?;
                end_of_block(&r)?;
                for (&v, &len) in values.iter().zip(&lengths) {
                    self.fold_double_run(v, len as usize);
                }
            }
            // Strings and every other scheme: decode.
            _ => return Ok(false),
        }
        Ok(true)
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
    /// selection after filter evaluation). Rows fold in ascending order.
    pub fn fold_decoded(
        &mut self,
        col: &DecodedColumn,
        sel: Option<&Selection>,
    ) -> Result<(), ExprError> {
        // lint: allow(cast) block row counts fit u32 by the format contract
        let len = col.len() as u32;
        if let Some(s) = sel {
            for r in s.iter() {
                self.fold_row(col, r, len)?;
            }
        } else {
            for r in 0..len {
                self.fold_row(col, r, len)?;
            }
        }
        Ok(())
    }

    fn fold_row(&mut self, col: &DecodedColumn, r: u32, len: u32) -> Result<(), ExprError> {
        if r >= len {
            return Err(ExprError::RowOutOfRange);
        }
        match (&mut self.acc, col) {
            (Acc::Count(c), _) => *c += 1,
            (Acc::SumInt(s), DecodedColumn::Int(v)) => {
                let x = v.get(r as usize).copied().ok_or(ExprError::RowOutOfRange)?;
                *s = s.wrapping_add(i64::from(x));
            }
            (Acc::MinInt(m), DecodedColumn::Int(v)) => {
                let x = v.get(r as usize).copied().ok_or(ExprError::RowOutOfRange)?;
                fold_min(m, x);
            }
            (Acc::MaxInt(m), DecodedColumn::Int(v)) => {
                let x = v.get(r as usize).copied().ok_or(ExprError::RowOutOfRange)?;
                fold_max(m, x);
            }
            (Acc::SumDouble(s), DecodedColumn::Double(v)) => {
                let x = v.get(r as usize).copied().ok_or(ExprError::RowOutOfRange)?;
                *s += x;
            }
            (Acc::MinDouble(m), DecodedColumn::Double(v)) => {
                let x = v.get(r as usize).copied().ok_or(ExprError::RowOutOfRange)?;
                if !x.is_nan() {
                    fold_min(m, x);
                }
            }
            (Acc::MaxDouble(m), DecodedColumn::Double(v)) => {
                let x = v.get(r as usize).copied().ok_or(ExprError::RowOutOfRange)?;
                if !x.is_nan() {
                    fold_max(m, x);
                }
            }
            (Acc::MinStr(m), DecodedColumn::Str(views)) => {
                let x = views.get(r as usize);
                if m.as_deref().is_none_or(|cur| x < cur) {
                    *m = Some(x.to_vec());
                }
            }
            (Acc::MaxStr(m), DecodedColumn::Str(views)) => {
                let x = views.get(r as usize);
                if m.as_deref().is_none_or(|cur| x > cur) {
                    *m = Some(x.to_vec());
                }
            }
            _ => return Err(ExprError::TypeMismatch("aggregate/column type mismatch")),
        }
        Ok(())
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
        assert!(sum.fold_compressed(&bytes, ColumnType::Double, &cfg).unwrap());
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
        assert!(sum.fold_compressed(&bytes, ColumnType::Integer, &cfg).unwrap());
        let expected: i64 = values.iter().map(|&x| i64::from(x)).sum();
        assert_eq!(sum.value(), AggValue::SumInt(expected));

        // Bit-packed blocks have no compressed-domain path.
        let bytes = compress_block_with(SchemeCode::FastBp128, BlockRef::Int(&values), &cfg);
        let mut sum = AggState::new(AggKind::Sum, ColumnType::Integer).unwrap();
        assert!(!sum.fold_compressed(&bytes, ColumnType::Integer, &cfg).unwrap());
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
            assert_eq!(sum.fold_compressed(block, ty, &cfg).unwrap_err(), expected, "fold");
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
    fn selected_fold_and_strings() {
        let arena = btrblocks::StringArena::from_strs(&["pear", "apple", "quince", "fig"]);
        let col = DecodedColumn::Str(btrblocks::StringViews::from_arena(&arena));
        let mut min = AggState::new(AggKind::Min, ColumnType::String).unwrap();
        let mut max = AggState::new(AggKind::Max, ColumnType::String).unwrap();
        let sel = Selection::from_sorted_indices(4, vec![0, 2, 3]);
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
