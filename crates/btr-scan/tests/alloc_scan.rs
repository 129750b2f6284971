//! A warm engine scan copies each row it returns once after decode.
//!
//! This binary installs btr-corrupt's tracking allocator as the global
//! allocator, fills a [`ScanEngine`]'s decoded-block cache with one full
//! scan of four 64,000-row groups (int, double and string columns), and
//! counts the bytes a second, warm full scan allocates. Workers that gather
//! each group straight into batch-sized columns, handed on without another
//! copy, allocate about the bytes the scan emits; gathering whole groups
//! and then copying them into batches allocates about twice that.

use btr_corrupt::alloc::{self, TrackingAllocator};
use btr_scan::chaos::build_relation;
use btr_scan::{EngineOptions, MemorySource, ScanEngine, ScanSpec};
use btrblocks::{Config, Sidecar};
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

const GROUP_ROWS: usize = 64_000;
const ROWS: usize = 4 * GROUP_ROWS;

// One #[test] only: the allocator counters are process-global, and a second
// test running on a sibling thread would count its allocations into the
// measured window.
#[test]
fn a_warm_full_scan_allocates_at_most_1_25x_the_bytes_it_emits() {
    let config = Config { block_size: GROUP_ROWS, ..Config::default() };
    let relation = build_relation(ROWS);
    let sidecar = Sidecar::build(&relation, GROUP_ROWS);
    let compressed = Arc::new(btrblocks::compress(&relation, &config).expect("compress"));
    drop(relation);
    let engine = ScanEngine::new(EngineOptions {
        workers: 2,
        prefetch: 4,
        batch_rows: 4_096,
        cache_bytes: 64 << 20,
        config,
    });
    let spec = ScanSpec::project(["id", "val", "tag"]);
    let scan = |source: Arc<MemorySource>| {
        let mut scan = engine.scan(source, &sidecar, &spec).expect("plan");
        let (mut emitted, mut rows) = (0, 0);
        for batch in scan.by_ref() {
            let batch = batch.expect("batch");
            emitted += batch.columns.iter().map(|(_, data)| data.heap_size()).sum::<usize>();
            rows += batch.rows();
        }
        (emitted, rows, scan.report())
    };

    let (_, cold_rows, _) = scan(Arc::new(MemorySource::new("rel", compressed.clone())));
    assert_eq!(cold_rows, ROWS);
    let source = Arc::new(MemorySource::new("rel", compressed));
    let before = alloc::allocated_bytes();
    let (emitted, rows, report) = scan(source);
    let allocated = alloc::allocated_bytes() - before;

    assert_eq!(rows, ROWS);
    assert_eq!((report.blocks_decoded, report.blocks_fetched), (0, 0), "a warm scan: {report:?}");
    assert!(
        allocated * 4 <= emitted * 5,
        "the warm scan allocated {allocated} B to emit {emitted} B ({:.2}x, bound 1.25x)",
        allocated as f64 / emitted as f64
    );
}
