//! Materialized scan output: fixed-size record batches.
//!
//! The engine decodes whole blocks but hands results to the consumer in
//! batches of `EngineOptions::batch_rows` rows, so downstream operators see a
//! steady granularity regardless of how the relation was blocked. This
//! module holds the batch type, [`gather`] (a block's selected rows) and
//! [`concat_runs`], with which [`crate::ScanStream`]'s cursor copies each
//! row once into a batch column sized for exactly its rows. Every
//! contiguous string copy here is one run
//! ([`StringArena::extend_from_range`]), not string by string.
//!
//! [`append`] and [`split_front`] are off the scan path: the benchmark's
//! traced scan phase, [`crate::chaos::drain`] and `tests/e2e.rs` still use
//! them.

use crate::{Result, ScanError};
use btr_expr::Selection;
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

/// Materializes the selected rows of a decoded block. `selection == None`
/// means "all rows" (no filter); a dense `Selection::is_all` takes the same
/// bulk-clone path, so late materialization costs nothing when everything
/// survives.
pub fn gather(decoded: &DecodedColumn, selection: Option<&Selection>) -> ColumnData {
    let dense = selection.is_none_or(Selection::is_all);
    match (decoded, dense) {
        (DecodedColumn::Int(v), true) => ColumnData::Int(v.clone()),
        (DecodedColumn::Int(v), false) => {
            // lint: allow(indexing) selection indices were produced from this block's own rows
            ColumnData::Int(sel_iter(selection).map(|i| v[i as usize]).collect())
        }
        (DecodedColumn::Double(v), true) => ColumnData::Double(v.clone()),
        (DecodedColumn::Double(v), false) => {
            // lint: allow(indexing) selection indices were produced from this block's own rows
            ColumnData::Double(sel_iter(selection).map(|i| v[i as usize]).collect())
        }
        (DecodedColumn::Str(views), true) => ColumnData::Str(views.to_arena()),
        (DecodedColumn::Str(views), false) => {
            let total: usize = sel_iter(selection).map(|i| views.get(i as usize).len()).sum();
            let count = selection.map_or(0, |s| s.cardinality() as usize);
            let mut arena = StringArena::with_capacity(count, total);
            for i in sel_iter(selection) {
                arena.push(views.get(i as usize));
            }
            ColumnData::Str(arena)
        }
    }
}

/// Row iterator of a sparse selection (`gather` only calls this when the
/// selection is present and not dense).
fn sel_iter<'a>(selection: Option<&'a Selection>) -> Box<dyn Iterator<Item = u32> + 'a> {
    match selection {
        Some(sel) => sel.iter(),
        None => Box::new(std::iter::empty()),
    }
}

/// Appends `src` onto `dst` (not on the scan path; see the module docs);
/// both must share a type (the planner guarantees this, so a mismatch is
/// reported as corruption rather than panicking). Strings move as one run of
/// bytes.
pub fn append(dst: &mut ColumnData, src: &ColumnData) -> Result<()> {
    extend_run(dst, src, 0..src.len())
}

/// Copies `runs` — row ranges of same-typed columns, in order — into one
/// column of type `ty` sized for exactly their `len` rows (and, for
/// strings, their bytes): one `extend_from_slice` or one
/// [`StringArena::extend_from_range`] per run. A type mismatch or rows past
/// a column's end are reported as corruption.
pub fn concat_runs<'a>(
    ty: ColumnType,
    len: usize,
    runs: impl Iterator<Item = (&'a ColumnData, Range<usize>)> + Clone,
) -> Result<ColumnData> {
    let mut out = match ty {
        ColumnType::Integer => ColumnData::Int(Vec::with_capacity(len)),
        ColumnType::Double => ColumnData::Double(Vec::with_capacity(len)),
        ColumnType::String => {
            let bytes = runs
                .clone()
                .map(|(col, rows)| match col {
                    ColumnData::Str(arena) => run_bytes(arena, rows).unwrap_or(0),
                    _ => 0,
                })
                .fold(0, usize::saturating_add);
            check_pool_bytes(0, bytes)?;
            ColumnData::Str(StringArena::with_capacity(len, bytes))
        }
    };
    for (col, rows) in runs {
        extend_run(&mut out, col, rows)?;
    }
    Ok(out)
}

/// Appends rows `rows` of `src` onto `dst`: one `extend_from_slice`, or for
/// strings one [`StringArena::extend_from_range`] run behind the 4 GiB
/// check. A type mismatch or rows past `src`'s end are reported as
/// corruption.
fn extend_run(dst: &mut ColumnData, src: &ColumnData, rows: Range<usize>) -> Result<()> {
    match (dst, src) {
        (ColumnData::Int(d), ColumnData::Int(s)) => {
            d.extend_from_slice(s.get(rows).ok_or_else(past_end)?);
        }
        (ColumnData::Double(d), ColumnData::Double(s)) => {
            d.extend_from_slice(s.get(rows).ok_or_else(past_end)?);
        }
        (ColumnData::Str(d), ColumnData::Str(s)) => {
            check_pool_bytes(d.total_bytes(), run_bytes(s, rows.clone())?)?;
            d.extend_from_range(s, rows);
        }
        _ => return Err(corrupt("column type changed between blocks")),
    }
    Ok(())
}

/// Pool bytes of strings `rows` of `arena`.
fn run_bytes(arena: &StringArena, rows: Range<usize>) -> Result<usize> {
    match arena.offsets.get(rows.start..=rows.end) {
        Some([first, .., last]) => Ok(last.saturating_sub(*first) as usize),
        Some([_]) => Ok(0),
        _ => Err(past_end()),
    }
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
    fn gather_with_and_without_selection() {
        let col = DecodedColumn::Int(vec![10, 20, 30, 40]);
        assert_eq!(gather(&col, None), ColumnData::Int(vec![10, 20, 30, 40]));
        let sel = Selection::from_sorted_indices(4, vec![1, 3]);
        assert_eq!(gather(&col, Some(&sel)), ColumnData::Int(vec![20, 40]));
        // A dense selection takes the bulk-clone path.
        let sel = Selection::all(4);
        assert_eq!(gather(&col, Some(&sel)), ColumnData::Int(vec![10, 20, 30, 40]));

        let arena = StringArena::from_strs(&["aa", "b", "ccc"]);
        let views = StringViews::from_arena(&arena);
        let col = DecodedColumn::Str(views);
        let sel = Selection::from_sorted_indices(3, vec![0, 2]);
        assert_eq!(
            gather(&col, Some(&sel)),
            ColumnData::Str(StringArena::from_strs(&["aa", "ccc"]))
        );
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

    /// Strings of every shape a re-chunk moves: empty, 0x00-bearing, longer
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
    fn concat_runs_copies_each_run_and_rejects_bad_ones() {
        let head = ColumnData::Str(StringArena::from_strs(&STRS[..4]));
        let tail = ColumnData::Str(StringArena::from_strs(&STRS[4..]));
        let runs = [(&head, 1..4), (&tail, 0..2)];
        let got = concat_runs(ColumnType::String, 5, runs.into_iter());
        let want = ColumnData::Str(StringArena::from_strs(&STRS[1..6]));
        assert_eq!(got, Ok(want));
        let ints = ColumnData::Int(vec![1, 2, 3]);
        let runs = [(&ints, 2..3), (&ints, 0..2)];
        let got = concat_runs(ColumnType::Integer, 3, runs.into_iter());
        assert_eq!(got, Ok(ColumnData::Int(vec![3, 1, 2])));
        for (ty, col, rows) in [
            (ColumnType::Integer, &ints, 2..4),
            (ColumnType::String, &head, 3..9),
            #[allow(clippy::reversed_empty_ranges)] // a hostile run
            (ColumnType::String, &head, 3..1),
        ] {
            let got = concat_runs(ty, 2, [(col, rows)].into_iter());
            assert_eq!(got, Err(past_end()));
        }
        let got = concat_runs(ColumnType::Double, 1, [(&ints, 0..1)].into_iter());
        assert_eq!(got, Err(corrupt("column type changed between blocks")));
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
