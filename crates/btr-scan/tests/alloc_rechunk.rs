//! A scan's stream moves the batches its workers cut; it copies no rows.
//!
//! This binary installs btr-corrupt's tracking allocator as the global
//! allocator and drains a [`ScanStream`] over four 64,000-row groups (int,
//! double and string columns), each already cut into 4,096-row batches as a
//! worker cuts it. A stream that moves the batches allocates only each
//! batch's name list, a few hundred bytes per batch; one that copies its
//! rows again allocates about the bytes it emits (1.00x), and one that
//! re-copies the rest of a group on every cut several times that.

use btr_corrupt::alloc::{self, TrackingAllocator};
use btr_scan::{GroupBatches, GroupFeed, ScanEnd, ScanStream};
use btrblocks::{ColumnData, ColumnType, StringArena};
use std::collections::VecDeque;

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

const GROUPS: usize = 4;
const GROUP_ROWS: usize = 64_000;
const BATCH_ROWS: usize = 4_096;

/// Hands out prepared groups; ending the scan releases nothing.
struct Groups(VecDeque<GroupBatches>);

impl GroupFeed for Groups {
    fn next_block(&mut self) -> Option<btr_scan::Result<GroupBatches>> {
        self.0.pop_front().map(Ok)
    }

    fn finish(&mut self, _: ScanEnd, _: u64) {}
}

/// Group `g`, cut into batches of `BATCH_ROWS` rows.
fn group(g: usize) -> GroupBatches {
    let rows = g * GROUP_ROWS..(g + 1) * GROUP_ROWS;
    let batch = |start: usize| {
        let rows = start..rows.end.min(start + BATCH_ROWS);
        let strings: Vec<String> = rows.clone().map(|i| format!("row-{}", i % 977)).collect();
        vec![
            ColumnData::Int(rows.clone().map(|i| i as i32).collect()),
            ColumnData::Double(rows.map(|i| i as f64 * 0.5).collect()),
            ColumnData::Str(StringArena::from_strs(&strings)),
        ]
    };
    GroupBatches {
        rows_matched: GROUP_ROWS as u64,
        batches: rows.clone().step_by(BATCH_ROWS).map(batch).collect(),
    }
}

// One #[test] only: the allocator counters are process-global, and a second
// test running on a sibling thread would count its allocations into the
// measured window.
#[test]
fn a_drain_allocates_at_most_5_percent_of_the_bytes_it_emits() {
    let feed = Groups((0..GROUPS).map(group).collect());
    let names = ["i", "d", "s"].map(String::from).to_vec();
    let types = vec![ColumnType::Integer, ColumnType::Double, ColumnType::String];
    let (mut emitted, mut rows) = (0, 0);

    let before = alloc::allocated_bytes();
    for batch in ScanStream::new(feed, names, types, BATCH_ROWS) {
        let batch = batch.expect("well-formed groups");
        assert!((1..=BATCH_ROWS).contains(&batch.rows()));
        emitted += batch.columns.iter().map(|(_, data)| data.heap_size()).sum::<usize>();
        rows += batch.rows();
    }
    let allocated = alloc::allocated_bytes() - before;

    assert_eq!(rows, GROUPS * GROUP_ROWS);
    assert!(
        allocated * 20 <= emitted,
        "the drain allocated {allocated} B to emit {emitted} B ({:.3}x, bound 0.05x)",
        allocated as f64 / emitted as f64
    );
}
