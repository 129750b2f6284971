//! The relation codec: the one loop that compresses and decompresses a
//! relation, block by block, on one worker or several.
//!
//! Blocks are self-contained, which is exactly what makes BtrBlocks easy to
//! parallelize (paper §2.2: "Blocks also facilitate parallelizing compression
//! and decompression"). Both directions flatten a relation into one work
//! item per block, column-major, and hand each item's result to a consumer
//! in item order. [`crate::compress`] and [`crate::decompress`] are
//! [`compress_parallel`] and [`decompress_parallel`] at one worker.
//!
//! - **One worker** runs on the caller's thread and spawns nothing. Each
//!   result is consumed as soon as it is produced: an encoded block joins
//!   its column; a decoded block is appended to its column and its buffer
//!   goes back to the worker's [`Scratch`] to serve the next block.
//! - **Several workers** claim cost-targeted ranges of items from a shared
//!   [`MorselDispenser`] (btr-sync) — bytes of input for encode, rows of
//!   output for decode — in morsels that start small, so every worker starts
//!   at once, and double per round up to a cap. Each worker owns its scratch
//!   arena and stages `(item, result)` pairs locally, handing them back
//!   through its scoped-thread join, so no lock guards a result; the caller
//!   then consumes them in item order.
//!
//! The consumer sees the same sequence at every worker count, so the output
//! is byte-identical and a corrupt relation reports the same error: the
//! first failure in column order, where a column's NULL bitmap is read after
//! its last block. A panicking item is caught on its worker, which goes on
//! with its queue, and resurfaces on the calling thread as
//! `worker for column C block B panicked: …`.

use crate::block::{self, BlockRef};
use crate::scheme;
use crate::config::Config;
use crate::relation::{Column, CompressedColumn, CompressedRelation, Relation};
use crate::scratch::Scratch;
use crate::types::{ColumnData, ColumnType, DecodedColumn, StringArena};
use crate::{Error, Result};
use btr_roaring::RoaringBitmap;
use btr_sync::morsel::{Granularity, MorselDispenser, WorkerStats};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Morsel sizing for encode, in bytes of input: 64 KiB ramping to 1 MiB.
const ENCODE_GRANULARITY: Granularity = Granularity {
    min_cost: 64 << 10,
    max_cost: 1 << 20,
};

/// Morsel sizing for decode, in rows of output: 8 Ki ramping to 256 Ki.
const DECODE_GRANULARITY: Granularity = Granularity {
    min_cost: 8 << 10,
    max_cost: 256 << 10,
};

/// Block `blk` of column `col`, weighted by `cost` for the dispenser.
#[derive(Debug, Clone, Copy)]
struct Item {
    col: usize,
    blk: usize,
    cost: u64,
}

/// What one worker hands back: `(item index, result or panic)` pairs.
type Staged<T> = Vec<(usize, std::thread::Result<T>)>;

/// Runs `work` for every item and hands each result to `consume` in item
/// order, stopping at the first error `consume` returns.
///
/// Every worker owns one arena from `arena()`. At one worker the loop runs
/// on the caller's thread and `work` and `consume` share that arena, so a
/// buffer `consume` gives back serves the next item's `work`. At several,
/// workers claim morsels from a [`MorselDispenser`] and stage their results,
/// which `consume` then takes on the caller's thread with an arena of its
/// own. A panic in `work` is caught (its worker goes on with the queue) and
/// resurfaces when its item is due, naming the item.
fn run_morsels<S, T: Send>(
    items: &[Item],
    threads: usize,
    granularity: Granularity,
    arena: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, Item) -> T + Sync,
    mut consume: impl FnMut(&mut S, Item, T) -> Result<()>,
) -> Result<()> {
    let settle = |it: Item, result: std::thread::Result<T>| match result {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(Box::new(format!(
            "worker for column {} block {} panicked: {}",
            it.col,
            it.blk,
            btr_sync::panic_message(payload.as_ref())
        ))),
    };
    let mut own = arena();
    let threads = threads.min(items.len());
    if threads <= 1 {
        for &it in items {
            let result = settle(it, catch_unwind(AssertUnwindSafe(|| work(&mut own, it))));
            consume(&mut own, it, result)?;
        }
        return Ok(());
    }
    let costs: Vec<u64> = items.iter().map(|it| it.cost).collect();
    let dispenser = MorselDispenser::new(&costs, granularity, threads);
    let staged: Vec<Staged<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut arena = arena();
                    let mut stats = WorkerStats::default();
                    let mut staged: Staged<T> = Vec::new();
                    while let Some(m) = dispenser.claim(&mut stats) {
                        let claimed = items
                            .get(m.start..m.end)
                            .expect("morsels lie inside the items");
                        for (i, &it) in (m.start..).zip(claimed) {
                            staged
                                .push((i, catch_unwind(AssertUnwindSafe(|| work(&mut arena, it)))));
                        }
                    }
                    staged
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("morsel workers catch every item's panic"))
            .collect()
    });
    let mut slots: Vec<Option<std::thread::Result<T>>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for (i, result) in staged.into_iter().flatten() {
        let slot = slots.get_mut(i).expect("morsels lie inside the items");
        assert!(
            slot.replace(result).is_none(),
            "the dispenser handed out item {i} twice"
        );
    }
    for (&it, slot) in items.iter().zip(slots) {
        let result = settle(it, slot.expect("the dispenser hands out every item"));
        consume(&mut own, it, result)?;
    }
    Ok(())
}

/// Compresses a relation block by block on up to `threads` workers; at one
/// worker this is [`crate::compress`].
///
/// A single-column relation still saturates every worker (items are blocks,
/// not columns). Output is byte-identical for every thread count: scheme
/// selection is deterministic per block and blocks join their columns in
/// order.
pub fn compress_parallel(
    rel: &Relation,
    cfg: &Config,
    threads: usize,
) -> Result<CompressedRelation> {
    compress_with(rel, cfg, threads, ENCODE_GRANULARITY)
}

/// Rows block `blk` covers in a `len`-row column at block size `bs`; the one
/// block of an empty column covers `0..0`.
fn block_rows(len: usize, bs: usize, blk: usize) -> Range<usize> {
    let start = blk.saturating_mul(bs).min(len);
    start..start.saturating_add(bs).min(len)
}

/// One item per block of every column, costed in bytes of input. An empty
/// column still has one, so its explicit empty block is written.
fn encode_items(rel: &Relation, bs: usize) -> Vec<Item> {
    let mut items = Vec::new();
    for (col, column) in rel.columns.iter().enumerate() {
        let len = column.data.len();
        for blk in 0..len.div_ceil(bs).max(1) {
            let rows = block_rows(len, bs, blk);
            let cost = match &column.data {
                ColumnData::Int(_) => rows.len() as u64 * 4,
                ColumnData::Double(_) => rows.len() as u64 * 8,
                // Strings pay for their bytes, so one 4 MB block and one
                // 40-byte block size morsels honestly.
                ColumnData::Str(arena) => {
                    let at = |row: usize| arena.offsets.get(row).copied().unwrap_or_default();
                    u64::from(at(rows.end).saturating_sub(at(rows.start)))
                }
            };
            items.push(Item { col, blk, cost });
        }
    }
    items
}

/// [`compress_parallel`] with an explicit morsel granularity.
fn compress_with(
    rel: &Relation,
    cfg: &Config,
    threads: usize,
    granularity: Granularity,
) -> Result<CompressedRelation> {
    let bs = cfg.block_size.max(1);
    let mut columns: Vec<CompressedColumn> = rel
        .columns
        .iter()
        .map(|col| CompressedColumn {
            name: col.name.clone(),
            column_type: col.data.column_type(),
            nulls: col
                .nulls
                .as_ref()
                .map(|b| b.serialize())
                .unwrap_or_default(),
            blocks: Vec::new(),
            schemes: Vec::new(),
        })
        .collect();
    run_morsels(
        &encode_items(rel, bs),
        threads,
        granularity,
        Scratch::new,
        |scratch: &mut Scratch, it| {
            let col = rel
                .columns
                .get(it.col)
                .expect("items index existing columns");
            let rows = block_rows(col.data.len(), bs, it.blk);
            let mut bytes = Vec::new();
            let code = match &col.data {
                ColumnData::Int(v) => {
                    let chunk = v.get(rows).expect("block rows lie inside the column");
                    block::compress_block_into(BlockRef::Int(chunk), cfg, scratch, &mut bytes)
                }
                ColumnData::Double(v) => {
                    let chunk = v.get(rows).expect("block rows lie inside the column");
                    block::compress_block_into(BlockRef::Double(chunk), cfg, scratch, &mut bytes)
                }
                ColumnData::Str(arena) => {
                    let mut sub = scratch.lease::<StringArena>(0);
                    sub.extend_from_range(arena, rows);
                    let depth = cfg.max_cascade_depth;
                    scheme::compress_str_into(&sub, depth, cfg, scratch, &mut bytes)
                }
            };
            (bytes, code)
        },
        |_, it, (bytes, code)| {
            let col = columns
                .get_mut(it.col)
                .expect("items index existing columns");
            col.blocks.push(bytes);
            col.schemes.push(code);
            Ok(())
        },
    )?;
    Ok(CompressedRelation {
        rows: rel.rows() as u64,
        columns,
    })
}

/// Decompresses a relation block by block on up to `threads` workers; at
/// one worker this is the decode inside [`crate::decompress`].
pub fn decompress_parallel(
    compressed: &CompressedRelation,
    cfg: &Config,
    threads: usize,
) -> Result<Relation> {
    decompress_with(compressed, cfg, threads, DECODE_GRANULARITY)
}

/// One item per block of every column, costed in rows of output from the
/// block's frame header. A block whose header cannot be peeked costs 1: its
/// error surfaces when the block is decoded.
fn decode_items(compressed: &CompressedRelation) -> Vec<Item> {
    let mut items = Vec::new();
    for (col, column) in compressed.columns.iter().enumerate() {
        for (blk, bytes) in column.blocks.iter().enumerate() {
            let cost = block::peek_count(bytes).map_or(1, |n| n.max(1) as u64);
            items.push(Item { col, blk, cost });
        }
    }
    items
}

/// [`decompress_parallel`] with an explicit morsel granularity.
fn decompress_with(
    compressed: &CompressedRelation,
    cfg: &Config,
    threads: usize,
    granularity: Granularity,
) -> Result<Relation> {
    let mut out = Assembly {
        compressed,
        cfg,
        columns: Vec::with_capacity(compressed.columns.len()),
        filling: None,
    };
    run_morsels(
        &decode_items(compressed),
        threads,
        granularity,
        Scratch::new,
        |scratch: &mut Scratch, it| {
            let col = compressed
                .columns
                .get(it.col)
                .expect("items index existing columns");
            let bytes = col.blocks.get(it.blk).expect("items index existing blocks");
            let mut decoded = scratch.lease_decoded(col.column_type);
            match block::decompress_block_into(bytes, col.column_type, cfg, scratch, &mut decoded) {
                Ok(()) => Ok(decoded),
                Err(e) => {
                    scratch.recycle(decoded);
                    Err(e)
                }
            }
        },
        |scratch, it, decoded| out.append(it.col, decoded, scratch),
    )?;
    out.complete_until(compressed.columns.len())?;
    Ok(Relation {
        columns: out.columns,
    })
}

/// A decoded relation under construction, one column at a time in file
/// order. A column starts with its first block and is completed — NULL
/// bitmap read, values moved in — when a later column's block arrives or
/// the blocks run out; so its bitmap is read after its last block, and a
/// column without blocks is completed in its turn.
struct Assembly<'a> {
    compressed: &'a CompressedRelation,
    cfg: &'a Config,
    columns: Vec<Column>,
    /// Values of column `columns.len()`, from its first block on.
    filling: Option<ColumnData>,
}

impl Assembly<'_> {
    /// Appends a decoded block of column `col`, completing every column
    /// before it first, and gives the block's buffer back to `scratch`.
    fn append(
        &mut self,
        col: usize,
        decoded: Result<DecodedColumn>,
        scratch: &mut Scratch,
    ) -> Result<()> {
        self.complete_until(col)?;
        let decoded = decoded?;
        let (compressed, cfg) = (self.compressed, self.cfg);
        let data = self
            .filling
            .get_or_insert_with(|| presized(compressed, col, cfg));
        let appended = append_block(data, &decoded);
        scratch.recycle(decoded);
        appended
    }

    /// Completes every column before column `end`; a column whose blocks
    /// do not add up to the file's row count is corrupt.
    fn complete_until(&mut self, end: usize) -> Result<()> {
        for col in self.columns.len()..end {
            let c = self
                .compressed
                .columns
                .get(col)
                .expect("items index existing columns");
            let nulls = if c.nulls.is_empty() {
                None
            } else {
                Some(RoaringBitmap::deserialize(&c.nulls)?)
            };
            let data = match self.filling.take() {
                Some(data) => data,
                None => presized(self.compressed, col, self.cfg),
            };
            if data.len() as u64 != self.compressed.rows {
                return Err(Error::Corrupt(
                    "column length differs from the file's row count",
                ));
            }
            let name = c.name.clone();
            self.columns.push(Column { name, data, nulls });
        }
        Ok(())
    }
}

/// An empty value buffer for column `col`, sized once from the file: its
/// row count, trusted only as far as the block headers (each capped at
/// `max_block_values`) back it up. String columns size their offsets; the
/// byte pool grows per block.
fn presized(compressed: &CompressedRelation, col: usize, cfg: &Config) -> ColumnData {
    let c = compressed
        .columns
        .get(col)
        .expect("items index existing columns");
    let held: usize = c
        .blocks
        .iter()
        .map(|b| block::peek_count(b).map_or(0, |n| n.min(cfg.max_block_values)))
        .fold(0, usize::saturating_add);
    let expected = usize::try_from(compressed.rows).map_or(held, |rows| rows.min(held));
    let mut data = match c.column_type {
        ColumnType::Integer => ColumnData::Int(Vec::new()),
        ColumnType::Double => ColumnData::Double(Vec::new()),
        ColumnType::String => ColumnData::Str(StringArena::new()),
    };
    // An allocator refusal just falls back to growth.
    let _ = match &mut data {
        ColumnData::Int(acc) => acc.try_reserve_exact(expected),
        ColumnData::Double(acc) => acc.try_reserve_exact(expected),
        ColumnData::Str(acc) => acc.offsets.try_reserve_exact(expected),
    };
    data
}

/// Appends one decoded block to its column's values; a string block moves
/// as runs of pool bytes, not string by string.
fn append_block(data: &mut ColumnData, decoded: &DecodedColumn) -> Result<()> {
    match (data, decoded) {
        (ColumnData::Int(acc), DecodedColumn::Int(v)) => acc.extend_from_slice(v),
        (ColumnData::Double(acc), DecodedColumn::Double(v)) => acc.extend_from_slice(v),
        (ColumnData::Str(acc), DecodedColumn::Str(v)) => acc.extend_from_views(&v.pool, &v.views)?,
        _ => return Err(Error::Corrupt("mixed block types in column")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{compress, decompress};

    fn sample(rows: usize) -> Relation {
        let strings: Vec<String> = (0..rows).map(|i| format!("p{}", i % 31)).collect();
        let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
        Relation::new(vec![
            Column::new("a", ColumnData::Int((0..rows as i32).collect())),
            Column::new(
                "b",
                ColumnData::Double((0..rows).map(|i| i as f64 * 0.5).collect()),
            ),
            Column::new("c", ColumnData::Str(StringArena::from_strs(&refs))),
            Column::new("d", ColumnData::Int(vec![9; rows])),
        ])
    }

    /// Unit-cost items labelled `(col, blk)`.
    fn items(labels: impl Iterator<Item = (usize, usize)>) -> Vec<Item> {
        labels
            .map(|(col, blk)| Item { col, blk, cost: 1 })
            .collect()
    }

    /// Runs `work` over `items` on `threads` workers claiming one item per
    /// morsel, collecting the results in item order.
    fn for_each<T: Send>(
        items: &[Item],
        threads: usize,
        work: impl Fn(Item) -> T + Sync,
    ) -> Vec<T> {
        let mut out = Vec::new();
        run_morsels(
            items,
            threads,
            Granularity::single_item(),
            || (),
            |_, it| work(it),
            |_, _, t| {
                out.push(t);
                Ok(())
            },
        )
        .expect("collecting never fails");
        out
    }

    #[test]
    fn parallel_matches_sequential() {
        let cfg = Config::default();
        let rel = sample(5_000);
        let seq = compress(&rel, &cfg).unwrap();
        for threads in [1, 2, 8] {
            let par = compress_parallel(&rel, &cfg, threads).unwrap();
            assert_eq!(par, seq, "threads = {threads}");
            let restored = decompress_parallel(&par, &cfg, threads).unwrap();
            assert_eq!(restored, rel);
        }
    }

    #[test]
    fn parallel_handles_empty_relation() {
        let cfg = Config::default();
        let rel = Relation::new(vec![]);
        let compressed = compress_parallel(&rel, &cfg, 4).unwrap();
        assert_eq!(decompress_parallel(&compressed, &cfg, 4).unwrap(), rel);
    }

    #[test]
    fn worker_panic_resurfaces_with_column_index() {
        // One worker stops at the panic on the caller's thread; several stage
        // it and resurface it when its item is due. The message is the same.
        for threads in [1, 3] {
            let caught = std::panic::catch_unwind(|| {
                for_each(&items((0..6).map(|c| (c, 0))), threads, |it| {
                    if it.col == 4 {
                        panic!("boom in column four");
                    }
                    it.col * 2
                })
            })
            .expect_err("the worker panic must propagate to the caller");
            let msg = caught
                .downcast_ref::<String>()
                .expect("panic payload carries the formatted message");
            assert!(
                msg.contains("column 4 block 0"),
                "threads {threads}, got: {msg}"
            );
            assert!(msg.contains("boom in column four"), "got: {msg}");
        }
    }

    #[test]
    fn panic_in_one_slot_does_not_lose_other_results() {
        // The panicking item must not stop the worker that claimed it: with
        // several workers every other item still runs before the panic
        // resurfaces.
        let completed = std::sync::atomic::AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(|| {
            for_each(&items((0..8).map(|c| (c, 0))), 2, |it| {
                assert!(it.col != 0, "item 0 panics on whichever worker claims it");
                completed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                it.col
            })
        });
        assert!(caught.is_err());
        assert_eq!(
            completed.load(std::sync::atomic::Ordering::Relaxed),
            7,
            "the worker must survive the panic and finish its queue"
        );
    }

    #[test]
    fn parallel_scratch_decode_is_byte_identical_to_serial() {
        // Worker-local scratch reuse must not perturb a single decoded bit,
        // including NaN payloads and signed zeros that `==` would gloss over.
        let cfg = Config {
            block_size: 512,
            ..Config::default()
        };
        let doubles: Vec<f64> = (0..4_000)
            .map(|i| match i % 5 {
                0 => f64::NAN,
                1 => -0.0,
                2 => i as f64 * 0.125,
                3 => f64::INFINITY,
                _ => -(i as f64),
            })
            .collect();
        let strings: Vec<String> = (0..4_000).map(|i| format!("row-{}", i % 97)).collect();
        let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
        let rel = Relation::new(vec![
            Column::new("i", ColumnData::Int((0..4_000).map(|i| i % 300).collect())),
            Column::new("d", ColumnData::Double(doubles)),
            Column::new("s", ColumnData::Str(StringArena::from_strs(&refs))),
        ]);
        let compressed = compress(&rel, &cfg).unwrap();
        let serial = decompress(&compressed.to_bytes(), &cfg).unwrap();
        for threads in [2, 3, 8] {
            let parallel = decompress_parallel(&compressed, &cfg, threads).unwrap();
            for (a, b) in serial.columns.iter().zip(&parallel.columns) {
                assert_eq!(a.name, b.name);
                match (&a.data, &b.data) {
                    (ColumnData::Int(x), ColumnData::Int(y)) => assert_eq!(x, y),
                    (ColumnData::Double(x), ColumnData::Double(y)) => {
                        assert_eq!(x.len(), y.len());
                        for (u, v) in x.iter().zip(y) {
                            assert_eq!(u.to_bits(), v.to_bits(), "threads = {threads}");
                        }
                    }
                    (ColumnData::Str(x), ColumnData::Str(y)) => {
                        assert_eq!(x.len(), y.len());
                        for i in 0..x.len() {
                            assert_eq!(x.get(i), y.get(i), "threads = {threads}");
                        }
                    }
                    _ => panic!("column type changed between one worker and several"),
                }
            }
        }
    }

    #[test]
    fn single_column_relation_fans_out_over_blocks() {
        // The whole point of block granularity: one column, many workers.
        // Output must stay byte-identical to one worker for every count.
        let cfg = Config {
            block_size: 512,
            ..Config::default()
        };
        let rel = Relation::new(vec![Column::new(
            "only",
            ColumnData::Int((0..20_000).map(|i| (i * 37) % 1000).collect()),
        )]);
        let seq = compress(&rel, &cfg).unwrap();
        assert!(
            seq.columns[0].blocks.len() > 30,
            "needs many blocks to parallelize"
        );
        for threads in [2, 3, 8] {
            let par = compress_parallel(&rel, &cfg, threads).unwrap();
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn mixed_relation_block_parallel_is_byte_identical() {
        // Uneven column lengths + all three types + an empty column, with a
        // block size that leaves ragged final blocks — across worker counts
        // AND granularities (adaptive, fixed, single-item).
        let cfg = Config {
            block_size: 300,
            ..Config::default()
        };
        let strings: Vec<String> = (0..2_750).map(|i| format!("city-{}", i % 41)).collect();
        let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
        let rel = Relation::new(vec![
            Column::new("i", ColumnData::Int((0..2_750).map(|i| i % 17).collect())),
            Column::new(
                "d",
                ColumnData::Double((0..2_750).map(|i| (i % 251) as f64 * 0.125).collect()),
            ),
            Column::new("s", ColumnData::Str(StringArena::from_strs(&refs))),
        ]);
        let seq = compress(&rel, &cfg).unwrap();
        let granularities = [
            Granularity::adaptive(256, 4096),
            Granularity::fixed(1024),
            Granularity::single_item(),
        ];
        for threads in [1, 2, 3, 8] {
            for g in granularities {
                let par = compress_with(&rel, &cfg, threads, g).unwrap();
                assert_eq!(par, seq, "threads = {threads}, granularity = {g:?}");
                assert_eq!(par.to_bytes(), seq.to_bytes(), "threads = {threads}");
            }
        }
        // Empty columns keep their explicit empty block at every count.
        let empty = Relation::new(vec![
            Column::new("a", ColumnData::Int(Vec::new())),
            Column::new("b", ColumnData::Str(StringArena::new())),
        ]);
        let seq = compress(&empty, &cfg).unwrap();
        let par = compress_parallel(&empty, &cfg, 4).unwrap();
        assert_eq!(par, seq);
        assert_eq!(par.columns[0].blocks.len(), 1);
    }

    #[test]
    fn block_panic_names_column_and_block() {
        let caught = std::panic::catch_unwind(|| {
            for_each(&items((0..6).map(|b| (9, b))), 2, |it| {
                if it.blk == 3 {
                    panic!("bad block");
                }
                it.blk
            })
        })
        .expect_err("the worker panic must propagate to the caller");
        let msg = caught
            .downcast_ref::<String>()
            .expect("panic payload carries the formatted message");
        assert!(msg.contains("column 9 block 3"), "got: {msg}");
        assert!(msg.contains("bad block"), "got: {msg}");
    }

    #[test]
    fn corrupt_column_error_propagates() {
        // A bad scheme code in one column and an undecodable NULL bitmap in
        // the other: whichever column comes first names the error, at every
        // worker count, because a column's bitmap is read after its blocks.
        let cfg = Config {
            block_size: 500,
            ..Config::default()
        };
        let clean = compress(&sample(2_000), &cfg).unwrap();
        for (bad_block, bad_bitmap) in [(0, 1), (1, 0)] {
            let mut compressed = clean.clone();
            compressed.columns[bad_block].blocks[1][0] = 200; // invalid scheme code
            compressed.columns[bad_bitmap].nulls = vec![0xFF; 7];
            for threads in [1, 2, 3] {
                let err = decompress_parallel(&compressed, &cfg, threads).unwrap_err();
                if bad_block < bad_bitmap {
                    assert_eq!(err, Error::InvalidScheme(200), "threads = {threads}");
                } else {
                    let roaring = matches!(
                        err,
                        Error::Substrate {
                            codec: "roaring",
                            ..
                        }
                    );
                    assert!(roaring, "threads = {threads}: {err:?}");
                }
            }
        }
    }

    #[test]
    fn a_column_longer_or_shorter_than_the_file_is_corrupt() {
        // Block 1 of column `a` swapped for a well-formed block of another
        // length: the relation would be ragged, so the decode refuses it.
        let cfg = Config {
            block_size: 1_000,
            ..Config::default()
        };
        let clean = compress(&sample(3_000), &cfg).unwrap();
        for values in [10, 1_010] {
            let mut compressed = clean.clone();
            let ints: Vec<i32> = (0..values).collect();
            compressed.columns[0].blocks[1] = block::compress_block(BlockRef::Int(&ints), &cfg).0;
            for threads in [1, 2, 3] {
                let err = decompress_parallel(&compressed, &cfg, threads).unwrap_err();
                let want = Error::Corrupt("column length differs from the file's row count");
                assert_eq!(err, want, "{values} values, threads = {threads}");
            }
            let err = decompress(&compressed.to_bytes(), &cfg).unwrap_err();
            let want = Error::Corrupt("column length differs from the file's row count");
            assert_eq!(err, want);
        }
    }

    #[test]
    fn decode_costs_come_from_frame_headers() {
        let cfg = Config {
            block_size: 700,
            ..Config::default()
        };
        let rel = Relation::new(vec![Column::new(
            "v",
            ColumnData::Int((0..2_000).map(|i| i % 5).collect()),
        )]);
        let compressed = compress(&rel, &cfg).unwrap();
        let costs: Vec<u64> = decode_items(&compressed).iter().map(|it| it.cost).collect();
        assert_eq!(
            costs,
            vec![700, 700, 600],
            "2000 rows at block_size 700: rows of output"
        );
    }

    #[test]
    fn encode_costs_are_bytes_of_input() {
        // Strings cost the bytes between their first and last offset; an
        // empty column is one zero-cost item.
        let rel = Relation::new(vec![
            Column::new("i", ColumnData::Int(vec![1, 2, 3, 4, 5])),
            Column::new(
                "s",
                ColumnData::Str(StringArena::from_strs(&["a", "bb", "", "cccc", "dd"])),
            ),
        ]);
        let costs: Vec<(usize, usize, u64)> = encode_items(&rel, 2)
            .iter()
            .map(|it| (it.col, it.blk, it.cost))
            .collect();
        assert_eq!(
            costs,
            vec![
                (0, 0, 8),
                (0, 1, 8),
                (0, 2, 4),
                (1, 0, 3),
                (1, 1, 4),
                (1, 2, 2)
            ]
        );
        let empty = Relation::new(vec![Column::new("e", ColumnData::Str(StringArena::new()))]);
        let costs: Vec<u64> = encode_items(&empty, 2).iter().map(|it| it.cost).collect();
        assert_eq!(costs, vec![0]);
    }

    /// xorshift64* — deterministic pseudo-random stream for the matrix test
    /// (the workspace is hermetic: no proptest crate, so the randomized
    /// matrix is hand-rolled with a fixed seed).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    fn random_relation(rng: &mut Rng, single_column: bool) -> Relation {
        let n_cols = if single_column {
            1
        } else {
            2 + rng.below(3) as usize
        };
        let rows = rng.below(3_000) as usize;
        let mut columns = Vec::new();
        for c in 0..n_cols {
            let data = match rng.below(3) {
                0 => ColumnData::Int((0..rows).map(|_| rng.below(500) as i32 - 250).collect()),
                1 => ColumnData::Double(
                    (0..rows)
                        .map(|_| rng.below(1 << 20) as f64 * 0.25)
                        .collect(),
                ),
                _ => {
                    let strings: Vec<String> =
                        (0..rows).map(|_| format!("s{}", rng.below(200))).collect();
                    let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
                    ColumnData::Str(StringArena::from_strs(&refs))
                }
            };
            columns.push(Column::new(format!("c{c}"), data));
        }
        Relation::new(columns)
    }

    #[test]
    fn morsel_matrix_is_byte_identical_to_serial() {
        // Randomized determinism matrix: workers × granularity × relation
        // shape. Every cell must produce byte-identical compressed output
        // and bit-identical decode vs the one-worker run.
        let mut rng = Rng(0x5eed_cafe_f00d_0001);
        let cfg = Config {
            block_size: 256,
            ..Config::default()
        };
        for case in 0..6 {
            let single = case % 2 == 0;
            let rel = random_relation(&mut rng, single);
            let seq = compress(&rel, &cfg).unwrap();
            let serial = decompress_parallel(&seq, &cfg, 1).unwrap();
            for threads in [1, 2, 3, 8] {
                for g in [Granularity::adaptive(128, 2048), Granularity::fixed(512)] {
                    let par = compress_with(&rel, &cfg, threads, g).unwrap();
                    assert_eq!(
                        par.to_bytes(),
                        seq.to_bytes(),
                        "case {case} threads {threads} g {g:?}"
                    );
                    let dec = decompress_with(&seq, &cfg, threads, g).unwrap();
                    assert_eq!(dec, serial, "case {case} threads {threads} g {g:?}");
                }
            }
        }
    }
}
