//! Re-chunking copies each scanned row once.
//!
//! This binary installs btr-corrupt's tracking allocator as the global
//! allocator and drains a [`ScanStream`] over four 64,000-row groups (int,
//! double and string columns) in 4,096-row batches. A stream that copies
//! each row once, into columns sized for exactly the batch, allocates about
//! the bytes it emits; one that re-copies the rest of a group on every cut
//! allocates several times that, and its batches keep capacity for rows
//! they do not hold.

use btr_corrupt::alloc::{self, TrackingAllocator};
use btr_scan::{BlockResult, GroupFeed, RecordBatch, ScanEnd, ScanStream};
use btrblocks::{ColumnData, ColumnType, StringArena};
use std::collections::VecDeque;

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

const GROUPS: usize = 4;
const GROUP_ROWS: usize = 64_000;
const BATCH_ROWS: usize = 4_096;

/// Hands out prepared groups; ending the scan releases nothing.
struct Groups(VecDeque<BlockResult>);

impl GroupFeed for Groups {
    fn next_block(&mut self) -> Option<btr_scan::Result<BlockResult>> {
        self.0.pop_front().map(Ok)
    }

    fn finish(&mut self, _: ScanEnd, _: u64) {}
}

fn group(g: usize) -> BlockResult {
    let rows = g * GROUP_ROWS..(g + 1) * GROUP_ROWS;
    let strings: Vec<String> = rows.clone().map(|i| format!("row-{}", i % 977)).collect();
    BlockResult {
        rows_matched: GROUP_ROWS as u64,
        columns: vec![
            ColumnData::Int(rows.clone().map(|i| i as i32).collect()),
            ColumnData::Double(rows.map(|i| i as f64 * 0.5).collect()),
            ColumnData::Str(StringArena::from_strs(&strings)),
        ],
    }
}

/// Bytes of a batch's values, and whether every fixed-width column's
/// capacity is at most `BATCH_ROWS`.
fn inspect(batch: &RecordBatch) -> (usize, bool) {
    let mut bytes = 0;
    let mut tight = true;
    for (_, data) in &batch.columns {
        bytes += data.heap_size();
        tight &= match data {
            ColumnData::Int(v) => v.capacity() <= BATCH_ROWS,
            ColumnData::Double(v) => v.capacity() <= BATCH_ROWS,
            ColumnData::Str(_) => true,
        };
    }
    (bytes, tight)
}

// One #[test] only: the allocator counters are process-global, and a second
// test running on a sibling thread would count its allocations into the
// measured window.
#[test]
fn a_drain_allocates_about_the_bytes_it_emits() {
    let feed = Groups((0..GROUPS).map(group).collect());
    let names = ["i", "d", "s"].map(String::from).to_vec();
    let types = vec![ColumnType::Integer, ColumnType::Double, ColumnType::String];
    let (mut emitted, mut rows, mut loose) = (0, 0, Vec::new());

    let before = alloc::allocated_bytes();
    for (k, batch) in ScanStream::new(feed, names, types, BATCH_ROWS).enumerate() {
        let batch = batch.expect("well-formed groups");
        let (bytes, tight) = inspect(&batch);
        emitted += bytes;
        rows += batch.rows();
        if !tight {
            loose.push(k);
        }
    }
    let allocated = alloc::allocated_bytes() - before;

    assert_eq!(rows, GROUPS * GROUP_ROWS);
    assert!(
        allocated * 4 <= emitted * 5,
        "the drain allocated {allocated} B to emit {emitted} B ({:.2}x, bound 1.25x)",
        allocated as f64 / emitted as f64
    );
    assert!(
        loose.is_empty(),
        "batches {loose:?} hold int/double capacity past {BATCH_ROWS} rows"
    );
}
