//! A warm filtered scan builds each leaf's answer from verdict words.
//!
//! This binary installs btr-corrupt's tracking allocator as the global
//! allocator, fills a [`ScanEngine`]'s decoded-block cache with one filtered
//! scan of four 64,000-row groups, and counts the bytes a second, warm scan
//! of the same filter allocates. The filter has the shape of a TPC-H Q6
//! conjunct: five leaves over three unsorted columns, two of them ranges,
//! and about 4 % of the rows survive. A leaf kernel that packs its verdicts
//! 64 rows to a word, into a buffer leased from the worker's scratch,
//! allocates little more than its answer's containers; one that lists every
//! match into a growing vector first allocates several times that.

use btr_corrupt::alloc::{self, TrackingAllocator};
use btr_corrupt::Xorshift;
use btr_expr::{col, lit};
use btr_scan::{EngineOptions, MemorySource, ScanEngine, ScanSpec};
use btrblocks::{Column, ColumnData, Config, Relation, Sidecar};
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

const GROUP_ROWS: usize = 64_000;
const GROUPS: usize = 4;
const ROWS: usize = GROUPS * GROUP_ROWS;

/// The bound on a warm scan's allocations, per row group, with a margin over
/// what a warm scan measured here, emitted batches included: 79 KB, and
/// 142 KB with the `lock-order` checker's bookkeeping. The same scan
/// building each leaf's answer from a per-row match list measured 1,272 KB.
const BOUND_PER_GROUP: usize = 192 << 10;

// One #[test] only: the allocator counters are process-global, and a second
// test running on a sibling thread would count its allocations into the
// measured window.
#[test]
fn a_warm_filtered_scan_allocates_at_most_its_bound_per_group() {
    let config = Config { block_size: GROUP_ROWS, ..Config::default() };
    let mut rng = Xorshift::new(0xF1);
    let mut doubles = || (0..ROWS).map(|_| rng.next_f64()).collect::<Vec<f64>>();
    let (a, b, m) = (doubles(), doubles(), doubles());
    let k: Vec<i32> = (0..ROWS).map(|_| rng.gen_range(0i32..1_000)).collect();
    let relation = Relation::new(vec![
        Column::new("k", ColumnData::Int(k)),
        Column::new("a", ColumnData::Double(a)),
        Column::new("b", ColumnData::Double(b)),
        Column::new("m", ColumnData::Double(m)),
    ]);
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
    let filter = (col("k").ge(lit(400)))
        .and(col("k").lt(lit(600)))
        .and(col("a").ge(lit(0.3)))
        .and(col("a").le(lit(0.7)))
        .and(col("b").lt(lit(0.5)));
    let spec = ScanSpec::project(["m", "a"]).with_expr(filter);
    let scan = |source: Arc<MemorySource>| {
        let mut scan = engine.scan(source, &sidecar, &spec).expect("plan");
        let rows: usize = scan.by_ref().map(|batch| batch.expect("batch").rows()).sum();
        (rows, scan.report())
    };

    let (cold_rows, _) = scan(Arc::new(MemorySource::new("rel", compressed.clone())));
    let source = Arc::new(MemorySource::new("rel", compressed));
    let before = alloc::allocated_bytes();
    let (rows, report) = scan(source);
    let allocated = alloc::allocated_bytes() - before;

    assert_eq!(rows, cold_rows);
    assert!(rows > ROWS / 50 && rows < ROWS / 10, "about 4 % survive: {rows}");
    assert_eq!((report.blocks_decoded, report.blocks_fetched), (0, 0), "a warm scan: {report:?}");
    assert!(
        allocated <= GROUPS * BOUND_PER_GROUP,
        "the warm scan allocated {} KB per group (bound {} KB)",
        (allocated / GROUPS) >> 10,
        BOUND_PER_GROUP >> 10
    );
}
