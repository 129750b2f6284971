//! Morsel-driven parallel compression and decompression.
//!
//! Blocks are self-contained, which is exactly what makes BtrBlocks easy to
//! parallelize (paper §2.2: "Blocks also facilitate parallelizing compression
//! and decompression"). Both directions fan out at *block* granularity over a
//! shared [`MorselDispenser`] (btr-sync): work items carry a cost — bytes of
//! input for encode, rows of output for decode — and each worker claims a
//! size-targeted *range* of items per trip to the queue instead of one item
//! per atomic bump. Granularity is adaptive: small morsels while ramping so
//! every worker starts immediately, doubling per round up to a cap so queue
//! traffic amortizes away at steady state.
//!
//! Contention is engineered out at both ends. The dispenser's cursor is the
//! only shared mutable word and it is cache-line padded; per-worker counters
//! ([`WorkerStats`]) live in worker-local storage. Results are *staged
//! worker-locally* — each worker accumulates `(item index, result)` pairs and
//! hands the whole batch back through its scoped-thread join — so the
//! collector never takes a lock a producer could be holding; there are no
//! result locks at all.
//!
//! Output is byte-identical to the serial path for every worker count and
//! granularity: scheme selection is deterministic per block and results are
//! reassembled in item order, regardless of completion order. Worker panics
//! are caught per item and resurfaced on the calling thread naming the
//! failing column/block (lowest item index wins when several panic), and a
//! panicking item does not prevent the same worker from finishing the rest
//! of the queue.

use crate::block::{self, BlockRef};
use crate::config::Config;
use crate::relation::{
    append_block, column_with_capacity, Column, CompressedColumn, CompressedRelation, Relation,
};
use crate::scheme::SchemeCode;
use crate::scratch::{DecodeScratch, EncodeScratch};
use crate::types::{ColumnData, DecodedColumn};
use crate::Result;
use btr_sync::morsel::{Granularity, MorselDispenser, WorkerStats};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

thread_local! {
    /// Per-worker decode arena: buffers leased while decoding one block are
    /// pooled on the worker thread and reused for every later block it
    /// decodes, so steady-state parallel decompression allocates little.
    static DECODE_SCRATCH: RefCell<DecodeScratch> = RefCell::new(DecodeScratch::new());

    /// Per-worker encode arena: the first block a worker compresses warms the
    /// sample/trial/side-array pools for every later block it pulls from the
    /// queue, mirroring the shared scratch of the serial path.
    static ENCODE_SCRATCH: RefCell<EncodeScratch> = RefCell::new(EncodeScratch::new());
}

/// Work accounting for one parallel run: one [`WorkerStats`] per worker.
#[derive(Debug, Clone, Default)]
pub struct ParallelStats {
    /// Per-worker accounting, in spawn order.
    pub workers: Vec<WorkerStats>,
}

impl ParallelStats {
    /// Sums the per-worker stats.
    pub fn total(&self) -> WorkerStats {
        let mut t = WorkerStats::default();
        for w in &self.workers {
            t.merge(w);
        }
        t
    }
}

/// Default morsel sizing for encode, in bytes of input: ramp from 64 KiB to
/// 1 MiB per claim.
pub fn encode_granularity() -> Granularity {
    Granularity::adaptive(64 << 10, 1 << 20)
}

/// Default morsel sizing for decode, in rows of output: ramp from 8 Ki rows
/// to 256 Ki rows per claim.
pub fn decode_granularity() -> Granularity {
    Granularity::adaptive(8 << 10, 256 << 10)
}

/// Runs `work(i)` for every item over up to `threads` workers claiming
/// cost-targeted morsels from a shared dispenser, returning results in item
/// order plus per-worker accounting.
///
/// Each worker stages its `(index, result)` pairs locally and returns them
/// through its join handle — no shared result state, no collector contention.
/// A panicking `work(i)` is caught on the worker (the remaining items still
/// run) and resurfaced on the calling thread as a panic naming the failing
/// work item via `describe(i)`; when several items panic, the lowest index
/// wins.
fn run_morsels<T: Send>(
    costs: &[u64],
    granularity: Granularity,
    threads: usize,
    work: impl Fn(usize) -> T + Sync,
    describe: impl Fn(usize) -> String,
) -> (Vec<T>, ParallelStats) {
    let n = costs.len();
    let threads = threads.max(1).min(n.max(1));
    let dispenser = MorselDispenser::new(costs, granularity, threads);
    type Staged<T> = Vec<(usize, std::thread::Result<T>)>;
    let worker_outputs: Vec<(Staged<T>, WorkerStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut stats = WorkerStats::default();
                    let mut staged: Staged<T> = Vec::new();
                    while let Some(m) = dispenser.claim(&mut stats) {
                        for i in m.start..m.end {
                            staged.push((i, catch_unwind(AssertUnwindSafe(|| work(i)))));
                        }
                    }
                    (staged, stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("morsel workers return their staging"))
            .collect()
    });
    let mut stats = ParallelStats { workers: Vec::with_capacity(threads) };
    let mut slots: Vec<Option<std::thread::Result<T>>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for (staged, ws) in worker_outputs {
        stats.workers.push(ws);
        for (i, r) in staged {
            if let Some(slot) = slots.get_mut(i) {
                *slot = Some(r);
            }
        }
    }
    let mut results = Vec::with_capacity(n);
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.expect("the dispenser covers every item exactly once") {
            Ok(v) => results.push(v),
            Err(payload) => std::panic::resume_unwind(Box::new(format!(
                "worker for {} panicked: {}",
                describe(i),
                btr_sync::panic_message(payload.as_ref())
            ))),
        }
    }
    (results, stats)
}

/// One unit of compression work: a block-sized slice of one column.
/// An empty column contributes a single `start == end == 0` item so its
/// explicit empty block is still produced (mirroring the serial path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeItem {
    /// Column index in the relation.
    pub col: usize,
    /// Block index within the column.
    pub blk: usize,
    /// First row of the block (inclusive).
    pub start: usize,
    /// One past the last row of the block.
    pub end: usize,
}

/// Flattens a relation into block-granular work items, column-major, so the
/// per-column results can be reassembled by pushing in item order.
pub fn encode_items(rel: &Relation, cfg: &Config) -> Vec<EncodeItem> {
    let bs = cfg.block_size.max(1);
    let mut items = Vec::new();
    for (c, col) in rel.columns.iter().enumerate() {
        let n = col.data.len();
        if n == 0 {
            items.push(EncodeItem { col: c, blk: 0, start: 0, end: 0 });
            continue;
        }
        let mut start = 0;
        let mut blk = 0;
        while start < n {
            let end = (start + bs).min(n);
            items.push(EncodeItem { col: c, blk, start, end });
            start = end;
            blk += 1;
        }
    }
    items
}

/// The dispenser cost of one encode item: bytes of input it covers.
pub fn encode_item_cost(rel: &Relation, item: &EncodeItem) -> u64 {
    let col = rel.columns.get(item.col).expect("items index existing columns");
    let rows = (item.end - item.start) as u64;
    match &col.data {
        ColumnData::Int(_) => rows * 4,
        ColumnData::Double(_) => rows * 8,
        // Strings pay per byte: sum the exact slice lengths (offset lookups,
        // no copies), so one 4 MB block and one 40-byte block size morsels
        // honestly.
        ColumnData::Str(arena) => (item.start..item.end)
            .map(|i| arena.get(i).len() as u64)
            .sum(),
    }
}

/// Compresses one work item on a worker thread, leasing every encode
/// temporary from the worker's thread-local [`EncodeScratch`].
pub fn compress_item(rel: &Relation, cfg: &Config, item: &EncodeItem) -> (Vec<u8>, SchemeCode) {
    let col = rel.columns.get(item.col).expect("items index existing columns");
    ENCODE_SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        let mut buf = Vec::new();
        let code = match &col.data {
            ColumnData::Int(v) => {
                let chunk = v.get(item.start..item.end).expect("item range within column");
                block::compress_block_into(BlockRef::Int(chunk), cfg, scratch, &mut buf)
            }
            ColumnData::Double(v) => {
                let chunk = v.get(item.start..item.end).expect("item range within column");
                block::compress_block_into(BlockRef::Double(chunk), cfg, scratch, &mut buf)
            }
            ColumnData::Str(arena) => {
                let mut sub = scratch.lease_arena();
                sub.clear();
                sub.extend_from_range(arena, item.start..item.end);
                let code = block::compress_block_into(BlockRef::Str(&sub), cfg, scratch, &mut buf);
                scratch.release_arena(sub);
                code
            }
        };
        (buf, code)
    })
}

/// Reassembles per-item compression results (in item order) into the final
/// relation. `items` must be the column-major list from [`encode_items`].
pub fn assemble_compressed(
    rel: &Relation,
    items: &[EncodeItem],
    results: Vec<(Vec<u8>, SchemeCode)>,
) -> CompressedRelation {
    let mut columns: Vec<CompressedColumn> = rel
        .columns
        .iter()
        .map(|col| CompressedColumn {
            name: col.name.clone(),
            column_type: col.data.column_type(),
            nulls: col.nulls.as_ref().map(|b| b.serialize()).unwrap_or_default(),
            blocks: Vec::new(),
            schemes: Vec::new(),
        })
        .collect();
    // Items are column-major, so pushing in item order restores block order.
    for (item, (bytes, code)) in items.iter().zip(results) {
        let col = columns.get_mut(item.col).expect("items index existing columns");
        col.blocks.push(bytes);
        col.schemes.push(code);
    }
    CompressedRelation {
        rows: rel.rows() as u64,
        columns,
    }
}

/// Compresses a relation `threads`-wide at block granularity with the
/// default adaptive [`encode_granularity`].
///
/// A single-column relation still saturates every worker (items are blocks,
/// not columns). Output is byte-identical to [`crate::relation::compress`]
/// for every thread count — scheme selection is deterministic and blocks are
/// reassembled in their original order.
pub fn compress_parallel(rel: &Relation, cfg: &Config, threads: usize) -> Result<CompressedRelation> {
    compress_parallel_stats(rel, cfg, threads, encode_granularity()).map(|(r, _)| r)
}

/// [`compress_parallel`] with an explicit morsel granularity, returning
/// per-worker work accounting alongside the result.
pub fn compress_parallel_stats(
    rel: &Relation,
    cfg: &Config,
    threads: usize,
    granularity: Granularity,
) -> Result<(CompressedRelation, ParallelStats)> {
    let items = encode_items(rel, cfg);
    let costs: Vec<u64> = items.iter().map(|it| encode_item_cost(rel, it)).collect();
    let (results, stats) = run_morsels(
        &costs,
        granularity,
        threads,
        // lint: allow(indexing) run_morsels only passes i < items.len()
        |i| compress_item(rel, cfg, &items[i]),
        |i| match items.get(i) {
            Some(it) => format!("column {} block {}", it.col, it.blk),
            None => format!("work item {i}"),
        },
    );
    Ok((assemble_compressed(rel, &items, results), stats))
}

/// One unit of decompression work: one compressed block of one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeItem {
    /// Column index in the compressed relation.
    pub col: usize,
    /// Block index within the column.
    pub blk: usize,
}

/// Flattens a compressed relation into block-granular decode items
/// (column-major) with their rows-of-output costs from each block's frame
/// header. A block whose header cannot be peeked costs 1 — the decode error
/// surfaces from the worker with the right column/block label instead.
pub fn decode_items(compressed: &CompressedRelation) -> (Vec<DecodeItem>, Vec<u64>) {
    let mut items = Vec::new();
    let mut costs = Vec::new();
    for (c, col) in compressed.columns.iter().enumerate() {
        for (b, bytes) in col.blocks.iter().enumerate() {
            items.push(DecodeItem { col: c, blk: b });
            costs.push(block::peek_count(bytes).unwrap_or(1).max(1) as u64);
        }
    }
    (items, costs)
}

/// Decompresses one block on a worker thread, leasing decode temporaries
/// from the worker's thread-local [`DecodeScratch`]. The decoded output is
/// returned by value (worker-local staging); its buffers come from the
/// worker's pool when warm.
pub fn decompress_item(
    compressed: &CompressedRelation,
    cfg: &Config,
    item: &DecodeItem,
) -> Result<DecodedColumn> {
    let col = compressed.columns.get(item.col).expect("items index existing columns");
    let bytes = col.blocks.get(item.blk).expect("items index existing blocks");
    DECODE_SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        let mut out = scratch.lease_decoded(col.column_type);
        match block::decompress_block_into(bytes, col.column_type, cfg, scratch, &mut out) {
            Ok(()) => Ok(out),
            Err(e) => {
                scratch.recycle(out);
                Err(e)
            }
        }
    })
}

/// Reassembles per-item decode results (item order from [`decode_items`])
/// into the decompressed relation, concatenating each column's blocks in
/// order and restoring NULL bitmaps.
pub fn assemble_decompressed(
    compressed: &CompressedRelation,
    items: &[DecodeItem],
    results: Vec<Result<DecodedColumn>>,
) -> Result<Relation> {
    // Every block is decoded by now, so each column's row count is known.
    let mut rows = vec![0usize; compressed.columns.len()];
    for (item, result) in items.iter().zip(&results) {
        if let (Some(n), Ok(decoded)) = (rows.get_mut(item.col), result) {
            *n += decoded.len();
        }
    }
    let mut columns: Vec<Column> = Vec::with_capacity(compressed.columns.len());
    for (col, &rows) in compressed.columns.iter().zip(&rows) {
        let nulls = if col.nulls.is_empty() {
            None
        } else {
            Some(btr_roaring::RoaringBitmap::deserialize(&col.nulls)?)
        };
        let data = column_with_capacity(col.column_type, rows);
        columns.push(Column { name: col.name.clone(), data, nulls });
    }
    for (item, result) in items.iter().zip(results) {
        let col = columns.get_mut(item.col).expect("items index existing columns");
        append_block(&mut col.data, &result?)?;
    }
    Ok(Relation { columns })
}

/// Decompresses a relation `threads`-wide at block granularity with the
/// default adaptive [`decode_granularity`].
pub fn decompress_parallel(
    compressed: &CompressedRelation,
    cfg: &Config,
    threads: usize,
) -> Result<Relation> {
    decompress_parallel_stats(compressed, cfg, threads, decode_granularity()).map(|(r, _)| r)
}

/// [`decompress_parallel`] with an explicit morsel granularity, returning
/// per-worker work accounting alongside the result.
pub fn decompress_parallel_stats(
    compressed: &CompressedRelation,
    cfg: &Config,
    threads: usize,
    granularity: Granularity,
) -> Result<(Relation, ParallelStats)> {
    let (items, costs) = decode_items(compressed);
    let (results, stats) = run_morsels(
        &costs,
        granularity,
        threads,
        // lint: allow(indexing) run_morsels only passes i < items.len()
        |i| decompress_item(compressed, cfg, &items[i]),
        |i| match items.get(i) {
            Some(it) => format!("column {} block {}", it.col, it.blk),
            None => format!("work item {i}"),
        },
    );
    let rel = assemble_decompressed(compressed, &items, results)?;
    Ok((rel, stats))
}

/// Runs `work(i)` for every `i in 0..n` on up to `threads` workers with
/// unit costs and single-item morsels — the pre-morsel fan-out shape, kept
/// for the panic-labelling contract tests.
#[cfg(test)]
fn for_each_labeled<T: Send>(
    n: usize,
    threads: usize,
    work: impl Fn(usize) -> T + Sync,
    describe: impl Fn(usize) -> String,
) -> Vec<T> {
    let costs = vec![1u64; n];
    run_morsels(&costs, Granularity::single_item(), threads, work, describe).0
}

/// [`for_each_labeled`] with the classic per-column labelling.
#[cfg(test)]
fn for_each_indexed<T: Send>(
    n: usize,
    threads: usize,
    work: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    for_each_labeled(n, threads, work, |i| format!("column {i}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ColumnData, StringArena};

    fn sample(rows: usize) -> Relation {
        let strings: Vec<String> = (0..rows).map(|i| format!("p{}", i % 31)).collect();
        let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
        Relation::new(vec![
            Column::new("a", ColumnData::Int((0..rows as i32).collect())),
            Column::new("b", ColumnData::Double((0..rows).map(|i| i as f64 * 0.5).collect())),
            Column::new("c", ColumnData::Str(StringArena::from_strs(&refs))),
            Column::new("d", ColumnData::Int(vec![9; rows])),
        ])
    }

    #[test]
    fn parallel_matches_sequential() {
        let cfg = Config::default();
        let rel = sample(5_000);
        let seq = crate::relation::compress(&rel, &cfg).unwrap();
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
        let caught = std::panic::catch_unwind(|| {
            for_each_indexed(6, 3, |i| {
                if i == 4 {
                    panic!("boom in column four");
                }
                i * 2
            })
        })
        .expect_err("the worker panic must propagate to the caller");
        let msg = caught
            .downcast_ref::<String>()
            .expect("panic payload carries the formatted message");
        assert!(msg.contains("column 4"), "got: {msg}");
        assert!(msg.contains("boom in column four"), "got: {msg}");
    }

    #[test]
    fn panic_in_one_slot_does_not_lose_other_results() {
        // The panicking index must not prevent later indices assigned to the
        // same worker from completing (the old behaviour killed the thread).
        let completed = std::sync::atomic::AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(|| {
            for_each_indexed(8, 1, |i| {
                assert!(i != 0, "index 0 panics first on the only worker");
                completed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                i
            })
        });
        assert!(caught.is_err());
        assert_eq!(
            completed.load(std::sync::atomic::Ordering::Relaxed),
            7,
            "the single worker must survive the panic and finish the queue"
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
        let compressed = crate::relation::compress(&rel, &cfg).unwrap();
        let serial = crate::relation::decompress_relation(&compressed, &cfg).unwrap();
        for threads in [1, 3, 8] {
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
                    _ => panic!("column type changed between serial and parallel"),
                }
            }
        }
    }

    #[test]
    fn single_column_relation_fans_out_over_blocks() {
        // The whole point of block granularity: one column, many workers.
        // Output must stay byte-identical to serial for every thread count.
        let cfg = Config {
            block_size: 512,
            ..Config::default()
        };
        let rel = Relation::new(vec![Column::new(
            "only",
            ColumnData::Int((0..20_000).map(|i| (i * 37) % 1000).collect()),
        )]);
        let seq = crate::relation::compress(&rel, &cfg).unwrap();
        assert!(seq.columns[0].blocks.len() > 30, "needs many blocks to parallelize");
        for threads in [1, 2, 3, 8] {
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
        let seq = crate::relation::compress(&rel, &cfg).unwrap();
        let granularities = [
            Granularity::adaptive(256, 4096),
            Granularity::fixed(1024),
            Granularity::single_item(),
        ];
        for threads in [1, 2, 3, 8] {
            for g in granularities {
                let (par, stats) = compress_parallel_stats(&rel, &cfg, threads, g).unwrap();
                assert_eq!(par, seq, "threads = {threads}, granularity = {g:?}");
                assert_eq!(par.to_bytes(), seq.to_bytes(), "threads = {threads}");
                let total = stats.total();
                assert_eq!(total.items as usize, encode_items(&rel, &cfg).len());
            }
        }
        // Empty columns keep their explicit empty block in parallel too.
        let empty = Relation::new(vec![
            Column::new("a", ColumnData::Int(Vec::new())),
            Column::new("b", ColumnData::Str(StringArena::new())),
        ]);
        let seq = crate::relation::compress(&empty, &cfg).unwrap();
        let par = compress_parallel(&empty, &cfg, 4).unwrap();
        assert_eq!(par, seq);
        assert_eq!(par.columns[0].blocks.len(), 1);
    }

    #[test]
    fn block_panic_names_column_and_block() {
        let caught = std::panic::catch_unwind(|| {
            for_each_labeled(
                6,
                2,
                |i| {
                    if i == 3 {
                        panic!("bad block");
                    }
                    i
                },
                |i| format!("column 9 block {i}"),
            )
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
        let cfg = Config::default();
        let rel = sample(500);
        let mut compressed = compress_parallel(&rel, &cfg, 2).unwrap();
        compressed.columns[1].blocks[0][0] = 200; // invalid scheme code
        assert!(decompress_parallel(&compressed, &cfg, 2).is_err());
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
        let compressed = crate::relation::compress(&rel, &cfg).unwrap();
        let (items, costs) = decode_items(&compressed);
        assert_eq!(items.len(), 3, "2000 rows at block_size 700 is 3 blocks");
        assert_eq!(costs, vec![700, 700, 600], "costs are rows of output");
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
        let n_cols = if single_column { 1 } else { 2 + rng.below(3) as usize };
        let rows = rng.below(3_000) as usize;
        let mut columns = Vec::new();
        for c in 0..n_cols {
            let data = match rng.below(3) {
                0 => ColumnData::Int((0..rows).map(|_| rng.below(500) as i32 - 250).collect()),
                1 => ColumnData::Double(
                    (0..rows).map(|_| rng.below(1 << 20) as f64 * 0.25).collect(),
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
        // and bit-identical decode vs the serial path.
        let mut rng = Rng(0x5eed_cafe_f00d_0001);
        let cfg = Config {
            block_size: 256,
            ..Config::default()
        };
        for case in 0..6 {
            let single = case % 2 == 0;
            let rel = random_relation(&mut rng, single);
            let seq = crate::relation::compress(&rel, &cfg).unwrap();
            let serial = crate::relation::decompress_relation(&seq, &cfg).unwrap();
            for threads in [1, 2, 3, 8] {
                for g in [Granularity::adaptive(128, 2048), Granularity::fixed(512)] {
                    let (par, _) = compress_parallel_stats(&rel, &cfg, threads, g).unwrap();
                    assert_eq!(
                        par.to_bytes(),
                        seq.to_bytes(),
                        "case {case} threads {threads} g {g:?}"
                    );
                    let (dec, stats) =
                        decompress_parallel_stats(&seq, &cfg, threads, g).unwrap();
                    assert_eq!(dec, serial, "case {case} threads {threads} g {g:?}");
                    let (items, costs) = decode_items(&seq);
                    assert_eq!(stats.total().items as usize, items.len());
                    assert_eq!(stats.total().cost_units, costs.iter().sum::<u64>());
                }
            }
        }
    }
}
