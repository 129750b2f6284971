//! Peak heap of an owned decode: `btrblocks::decompress` streams.
//!
//! This binary installs btr-corrupt's tracking allocator as the global
//! allocator and measures the highest point live heap bytes reach while
//! `decompress` turns a file into a `Relation`. A decode that appends each
//! block to its column as soon as the block is decoded holds the parsed file,
//! the output columns and one block buffer; a decode that stages every
//! decoded block before assembling the columns holds a second copy of the
//! relation and fails the bound below.

use btr_corrupt::alloc::{self, TrackingAllocator};
use btrblocks::{Column, ColumnData, Config, Relation, StringArena};

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

const ROWS: usize = 64_000;

fn relation() -> Relation {
    let strings: Vec<String> = (0..ROWS)
        .map(|i| format!("item-{:04}", (i * 7) % 1_000))
        .collect();
    Relation::new(vec![
        Column::new(
            "i",
            ColumnData::Int((0..ROWS).map(|i| ((i * 31) % 10_000) as i32).collect()),
        ),
        Column::new(
            "d",
            ColumnData::Double((0..ROWS).map(|i| (i % 500) as f64 * 0.25).collect()),
        ),
        Column::new("s", ColumnData::Str(StringArena::from_strs(&strings))),
    ])
}

// One #[test] only: the allocator counters are process-global, and a second
// test running on a sibling thread would count its allocations into the
// measured window.
#[test]
fn owned_decode_peaks_below_one_point_six_times_its_output() {
    let cfg = Config {
        block_size: 4_096,
        ..Config::default()
    };
    let rel = relation();
    let bytes = btrblocks::compress(&rel, &cfg).unwrap().to_bytes();

    let (restored, peak) = alloc::measure(|| btrblocks::decompress(&bytes, &cfg).unwrap());
    assert_eq!(restored, rel);
    let output = restored.heap_size();
    assert!(
        peak * 10 <= output * 16,
        "decompress peaked at {peak} B of live heap for a {output} B relation ({:.2}x, bound 1.6x)",
        peak as f64 / output as f64
    );
}
