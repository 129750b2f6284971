//! Materialized scan output: record batches of at most
//! `EngineOptions::batch_rows` rows, none spanning two row groups.
//!
//! A worker cuts each row group's selected rows into batches as it gathers
//! them, and [`crate::ScanStream`] hands those columns on without copying
//! them again. This module holds the batch type and the two gathers of one
//! batch's rows from a decoded block, each into a column sized for exactly
//! those rows: [`gather_range`] for a run of rows (one slice copy, or one
//! copy per run of pool-contiguous string views) and [`gather_rows`] for
//! rows a sparse selection picked.
//!
//! [`append`] and [`split_front`] are off the scan path: the benchmark's
//! traced scan phase, [`crate::chaos::drain`] and `tests/e2e.rs` still use
//! them.

use crate::{Result, ScanError};
use btrblocks::{ColumnData, ColumnType, DecodedColumn, StringArena};
use std::ops::Range;

/// A horizontal slice of scan output: equal-length columns, in projection
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordBatch {
    /// `(column name, values)` pairs in projection order.
    pub columns: Vec<(String, ColumnData)>,
}

impl RecordBatch {
    /// Number of rows in the batch.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, |(_, data)| data.len())
    }

    /// Looks up a column's values by name.
    pub fn column(&self, name: &str) -> Option<&ColumnData> {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, data)| data)
    }
}

/// An empty buffer of the given type, used to seed per-column accumulators.
pub fn empty_like(ty: ColumnType) -> ColumnData {
    match ty {
        ColumnType::Integer => ColumnData::Int(Vec::new()),
        ColumnType::Double => ColumnData::Double(Vec::new()),
        ColumnType::String => ColumnData::Str(StringArena::new()),
    }
}

/// Rows `rows` of a decoded block, as a column sized for exactly them: one
/// slice copy, or for strings one copy per run of views that follow each
/// other in the block's pool ([`btrblocks::StringViews::arena_of`]). Rows past the
/// block are reported as corruption.
pub fn gather_range(decoded: &DecodedColumn, rows: Range<usize>) -> Result<ColumnData> {
    Ok(match decoded {
        DecodedColumn::Int(v) => ColumnData::Int(v.get(rows).ok_or_else(past_end)?.to_vec()),
        DecodedColumn::Double(v) => ColumnData::Double(v.get(rows).ok_or_else(past_end)?.to_vec()),
        DecodedColumn::Str(views) => ColumnData::Str(views.arena_of(rows)?),
    })
}

/// The rows at `indices` (a selection of the block's own rows, ascending)
/// of a decoded block, as a column sized for exactly them; strings are
/// copied one by one.
pub fn gather_rows(decoded: &DecodedColumn, indices: &[u32]) -> ColumnData {
    match decoded {
        DecodedColumn::Int(v) => {
            // lint: allow(indexing) selection indices were produced from this block's own rows
            ColumnData::Int(indices.iter().map(|&i| v[i as usize]).collect())
        }
        DecodedColumn::Double(v) => {
            // lint: allow(indexing) selection indices were produced from this block's own rows
            ColumnData::Double(indices.iter().map(|&i| v[i as usize]).collect())
        }
        DecodedColumn::Str(views) => {
            let bytes = indices.iter().map(|&i| views.get(i as usize).len()).sum();
            let mut arena = StringArena::with_capacity(indices.len(), bytes);
            for &i in indices {
                arena.push(views.get(i as usize));
            }
            ColumnData::Str(arena)
        }
    }
}

/// Appends `src` onto `dst` (not on the scan path; see the module docs);
/// both must share a type (the planner guarantees this, so a mismatch is
/// reported as corruption rather than panicking). Strings move as one run of
/// bytes.
pub fn append(dst: &mut ColumnData, src: &ColumnData) -> Result<()> {
    match (dst, src) {
        (ColumnData::Int(d), ColumnData::Int(s)) => d.extend_from_slice(s),
        (ColumnData::Double(d), ColumnData::Double(s)) => d.extend_from_slice(s),
        (ColumnData::Str(d), ColumnData::Str(s)) => {
            check_pool_bytes(d.total_bytes(), s.total_bytes())?;
            d.extend_from_range(s, 0..s.len());
        }
        _ => return Err(corrupt("column type changed between blocks")),
    }
    Ok(())
}

fn past_end() -> ScanError {
    corrupt("row range past its column")
}

/// Arena offsets are u32: a string buffer holding `held` pool bytes may take
/// `extra` more only while the total stays below 4 GiB.
fn check_pool_bytes(held: usize, extra: usize) -> Result<()> {
    match held.checked_add(extra).map(u32::try_from) {
        Some(Ok(_)) => Ok(()),
        _ => Err(corrupt("string buffer exceeds 4 GiB")),
    }
}

fn corrupt(what: &'static str) -> ScanError {
    ScanError::Decode(btrblocks::Error::Corrupt(what))
}

/// Removes and returns the first `k` rows of `data` (`k <= data.len()`),
/// copying the rest; not on the scan path (see the module docs).
pub fn split_front(data: &mut ColumnData, k: usize) -> ColumnData {
    match data {
        ColumnData::Int(v) => {
            let tail = v.split_off(k);
            ColumnData::Int(std::mem::replace(v, tail))
        }
        ColumnData::Double(v) => {
            let tail = v.split_off(k);
            ColumnData::Double(std::mem::replace(v, tail))
        }
        ColumnData::Str(arena) => {
            // Each side is one run copy; the copy sizes the byte pool.
            let run = |rows: Range<usize>| {
                let mut out = StringArena::with_capacity(rows.len(), 0);
                out.extend_from_range(arena, rows);
                out
            };
            let (front, tail) = (run(0..k), run(k..arena.len()));
            *arena = tail;
            ColumnData::Str(front)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrblocks::StringViews;

    #[test]
    fn gathers_copy_exactly_their_rows() {
        let col = DecodedColumn::Int(vec![10, 20, 30, 40]);
        assert_eq!(gather_range(&col, 0..4), Ok(ColumnData::Int(vec![10, 20, 30, 40])));
        assert_eq!(gather_range(&col, 1..3), Ok(ColumnData::Int(vec![20, 30])));
        assert_eq!(gather_range(&col, 3..5), Err(past_end()));
        assert_eq!(gather_rows(&col, &[1, 3]), ColumnData::Int(vec![20, 40]));
        let col = DecodedColumn::Double(vec![0.5, 1.5]);
        assert_eq!(gather_rows(&col, &[1]), ColumnData::Double(vec![1.5]));

        let arena = StringArena::from_strs(&STRS);
        let col = DecodedColumn::Str(StringViews::from_arena(&arena));
        for start in 0..=STRS.len() {
            for end in start..=STRS.len() {
                let want = ColumnData::Str(StringArena::from_strs(&STRS[start..end]));
                assert_eq!(gather_range(&col, start..end), Ok(want), "{start}..{end}");
            }
        }
        let want = ColumnData::Str(StringArena::from_strs(&[STRS[0], STRS[2], STRS[5]]));
        assert_eq!(gather_rows(&col, &[0, 2, 5]), want);
        assert_eq!(gather_rows(&col, &[]), ColumnData::Str(StringArena::new()));
    }

    #[test]
    fn append_and_split_front_rechunk_all_types() {
        let mut acc = empty_like(ColumnType::String);
        append(
            &mut acc,
            &ColumnData::Str(StringArena::from_strs(&["x", "yy"])),
        )
        .unwrap();
        append(
            &mut acc,
            &ColumnData::Str(StringArena::from_strs(&["zzz"])),
        )
        .unwrap();
        let front = split_front(&mut acc, 2);
        assert_eq!(front, ColumnData::Str(StringArena::from_strs(&["x", "yy"])));
        assert_eq!(acc, ColumnData::Str(StringArena::from_strs(&["zzz"])));

        let mut acc = empty_like(ColumnType::Double);
        append(&mut acc, &ColumnData::Double(vec![1.5, 2.5, 3.5])).unwrap();
        let front = split_front(&mut acc, 1);
        assert_eq!(front, ColumnData::Double(vec![1.5]));
        assert_eq!(acc.len(), 2);
    }

    /// Strings of every shape a gather or re-chunk copies: empty, 0x00-bearing, longer
    /// than 8 bytes.
    const STRS: [&[u8]; 7] =
        [b"", b"\0a\0", b"longer than eight", b"x", b"", b"\0", b"tail bytes!"];

    /// The string-by-string copy the run copies replace: `prefix`, then
    /// strings `rows` of `src`.
    fn reference(prefix: &StringArena, src: &StringArena, rows: Range<usize>) -> ColumnData {
        let mut out = prefix.clone();
        for i in rows {
            out.push(src.get(i));
        }
        ColumnData::Str(out)
    }

    #[test]
    fn string_rechunking_matches_a_string_by_string_reference() {
        let empty = StringArena::new();
        let prefixes = [empty.clone(), StringArena::from_strs(&STRS[1..3])];
        for n in 0..=STRS.len() {
            let src = StringArena::from_strs(&STRS[..n]);
            for prefix in &prefixes {
                let mut acc = ColumnData::Str(prefix.clone());
                append(&mut acc, &ColumnData::Str(src.clone())).unwrap();
                assert_eq!(acc, reference(prefix, &src, 0..n), "append of {n}");
            }
            for k in 0..=n {
                let mut tail = ColumnData::Str(src.clone());
                let front = split_front(&mut tail, k);
                assert_eq!(front, reference(&empty, &src, 0..k), "front {k} of {n}");
                assert_eq!(tail, reference(&empty, &src, k..n), "tail {k} of {n}");
                for end in k..=n {
                    for prefix in &prefixes {
                        let mut out = prefix.clone();
                        out.extend_from_range(&src, k..end);
                        let out = ColumnData::Str(out);
                        assert_eq!(out, reference(prefix, &src, k..end), "{k}..{end} of {n}");
                    }
                }
            }
        }
    }

    #[test]
    fn string_pool_bound_is_4_gib() {
        let max = u32::MAX as usize;
        assert!(check_pool_bytes(0, 0).is_ok());
        assert!(check_pool_bytes(max - 5, 5).is_ok());
        assert!(check_pool_bytes(0, max).is_ok());
        for (held, extra) in [(max - 5, 6), (max, 1), (0, max + 1), (usize::MAX, 1)] {
            assert_eq!(
                check_pool_bytes(held, extra),
                Err(ScanError::Decode(btrblocks::Error::Corrupt("string buffer exceeds 4 GiB"))),
                "{held} + {extra}"
            );
        }
    }

    #[test]
    fn append_rejects_type_mismatch() {
        let mut acc = empty_like(ColumnType::Integer);
        assert!(append(&mut acc, &ColumnData::Double(vec![1.0])).is_err());
    }

    #[test]
    fn batch_accessors() {
        let batch = RecordBatch {
            columns: vec![
                ("a".into(), ColumnData::Int(vec![1, 2])),
                ("b".into(), ColumnData::Double(vec![0.5, 1.5])),
            ],
        };
        assert_eq!(batch.rows(), 2);
        assert!(matches!(batch.column("b"), Some(ColumnData::Double(_))));
        assert!(batch.column("c").is_none());
    }
}
