//! End-to-end scan over a simulated object store.
//!
//! The acceptance scenario for the scan engine: a multi-block relation
//! behind `btr-s3sim`, a selective predicate, and three claims to prove —
//! pruned blocks are never fetched, results are byte-identical to
//! decompress-then-filter over the full relation, and a repeat scan is
//! served from the decoded-block cache.

use btr_s3sim::{FaultPlan, ObjectStore, RetryPolicy};
use btr_scan::batch::append;
use btr_scan::chaos::build_relation;
use btr_scan::{
    col, lit, BlockSource, EngineOptions, ObjectStoreSource, RecordBatch, RelationLayout,
    ScanEngine, ScanSpec,
};
use btrblocks::{ColumnData, Config, Sidecar};
use std::sync::Arc;

const BLOCK_SIZE: usize = 1_000;
const ROWS: usize = 20_000;
const CUTOFF: i32 = 3_000;

fn config() -> Config {
    Config {
        block_size: BLOCK_SIZE,
        ..Config::default()
    }
}

/// Reference result: decompress the *entire* relation, then filter row by
/// row — the baseline the scan engine must match byte for byte.
fn decompress_then_filter(file: &[u8], cfg: &Config) -> (ColumnData, ColumnData) {
    let full = btrblocks::decompress(file, cfg).expect("reference decode");
    let ids = match &full.columns[0].data {
        ColumnData::Int(v) => v,
        other => panic!("id decoded as {other:?}"),
    };
    let keep: Vec<usize> = (0..ids.len()).filter(|&i| ids[i] < CUTOFF).collect();
    let id_out = ColumnData::Int(keep.iter().map(|&i| ids[i]).collect());
    let tag_out = match &full.columns[2].data {
        ColumnData::Str(arena) => ColumnData::Str(arena.gather(keep.iter().copied())),
        other => panic!("tag decoded as {other:?}"),
    };
    (id_out, tag_out)
}

fn concat(batches: &[RecordBatch], column: &str) -> ColumnData {
    let mut columns = batches.iter().map(|b| b.column(column).expect("projected column"));
    let mut all = columns.next().expect("at least one batch").clone();
    for next in columns {
        append(&mut all, next).expect("one type per column");
    }
    all
}

fn spec() -> ScanSpec {
    ScanSpec::project(["id", "tag"]).with_expr(col("id").lt(lit(CUTOFF)))
}

#[test]
fn selective_scan_over_object_store_prunes_matches_and_caches() {
    let cfg = config();
    let rel = build_relation(ROWS);
    let sidecar = Sidecar::build(&rel, BLOCK_SIZE);
    let compressed = btrblocks::compress(&rel, &cfg).expect("compress");
    let layout = RelationLayout::of(&compressed);
    let file = compressed.to_bytes();
    let file_len = file.len() as u64;
    assert_eq!(layout.file_len, file_len);

    let store = Arc::new(ObjectStore::new());
    store.put("lake/rel.btr", file.clone());
    let source = Arc::new(ObjectStoreSource::new(
        store.clone(),
        "lake/rel.btr",
        layout,
        RetryPolicy::default(),
    ));

    let engine = ScanEngine::new(EngineOptions {
        config: cfg.clone(),
        batch_rows: 700,
        ..EngineOptions::default()
    });

    // --- Cold scan ---------------------------------------------------------
    let mut scan = engine.scan(source.clone(), &sidecar, &spec()).expect("plan");
    let batches: Vec<RecordBatch> = scan.by_ref().map(|b| b.expect("batch")).collect();
    let cold = scan.report();

    // (a) Pruning is visible on the wire: 17 of 20 row groups never leave
    // the store, so the scan moves a fraction of the object.
    assert_eq!(cold.blocks_total, 20);
    assert_eq!(cold.blocks_pruned, 17);
    assert!(
        cold.bytes_fetched < file_len / 2,
        "selective scan fetched {} of {} bytes",
        cold.bytes_fetched,
        file_len
    );
    assert_eq!(cold.bytes_fetched, source.stats().bytes_fetched);
    let counters = store.counters();
    assert_eq!(counters.get_requests, 0, "only ranged GETs expected");
    assert!(counters.ranged_get_requests >= 6, "id + tag per surviving group");

    // (b) Byte-identical to decompress-then-filter over the full relation.
    let (want_ids, want_tags) = decompress_then_filter(&file, &cfg);
    assert_eq!(concat(&batches, "id"), want_ids);
    assert_eq!(concat(&batches, "tag"), want_tags);
    assert_eq!(cold.rows_matched, CUTOFF as u64);
    assert_eq!(cold.rows_total, ROWS as u64);
    assert!(cold.blocks_decoded > 0);

    // --- Warm scan ---------------------------------------------------------
    let mut scan = engine.scan(source.clone(), &sidecar, &spec()).expect("plan");
    let warm_batches: Vec<RecordBatch> = scan.by_ref().map(|b| b.expect("batch")).collect();
    let warm = scan.report();

    // (c) The repeat scan is served from the decoded-block cache: no new
    // fetches, no new decodes, strictly less decode time.
    assert!(warm.cache_hits > 0);
    assert_eq!(warm.blocks_decoded, 0);
    assert_eq!(warm.blocks_fetched, 0);
    assert_eq!(warm.bytes_fetched, 0);
    assert!(warm.decode_seconds <= cold.decode_seconds);
    assert_eq!(concat(&warm_batches, "id"), want_ids);
    assert_eq!(concat(&warm_batches, "tag"), want_tags);
}

/// Wraps a source and remembers every `(column, block)` actually fetched, so
/// a test can prove zone-pruned blocks never reach the wire.
struct RecordingSource {
    inner: Arc<dyn BlockSource>,
    fetched: std::sync::Mutex<std::collections::HashSet<(u32, u32)>>,
}

impl RecordingSource {
    fn new(inner: Arc<dyn BlockSource>) -> RecordingSource {
        RecordingSource {
            inner,
            fetched: std::sync::Mutex::new(std::collections::HashSet::new()),
        }
    }

    fn fetched_blocks(&self) -> std::collections::HashSet<(u32, u32)> {
        self.fetched.lock().expect("ledger lock").clone()
    }
}

impl BlockSource for RecordingSource {
    fn relation_id(&self) -> Arc<str> {
        self.inner.relation_id()
    }
    fn rows(&self) -> u64 {
        self.inner.rows()
    }
    fn columns(&self) -> Vec<btr_scan::SourceColumn> {
        self.inner.columns()
    }
    fn fetch(&self, column: u32, block: u32) -> btr_scan::Result<Vec<u8>> {
        self.fetched.lock().expect("ledger lock").insert((column, block));
        self.inner.fetch(column, block)
    }
    fn stats(&self) -> btr_scan::FetchStats {
        self.inner.stats()
    }
}

#[test]
fn zone_pruned_blocks_are_never_fetched_with_multi_conjunct_filters() {
    use btr_scan::MemorySource;

    let cfg = config();
    let rel = build_relation(ROWS);
    let sidecar = Sidecar::build(&rel, BLOCK_SIZE);
    let compressed = Arc::new(btrblocks::compress(&rel, &cfg).expect("compress"));
    let inner = Arc::new(MemorySource::new("ledger", compressed));
    let source = Arc::new(RecordingSource::new(inner));

    // id in [2000, 6000) AND val < 2397.0: ids keep blocks 2..6, vals
    // (0.5 * id - 3) < 2397 keeps blocks 0..4 — the conjunction survives
    // only in blocks 2..=4, everything else must die at plan time.
    let expr = col("id")
        .ge(lit(2_000))
        .and(col("id").lt(lit(6_000)))
        .and(col("val").lt(lit(2_397.0)));
    let spec = ScanSpec::project(["id", "val"]).with_expr(expr);

    let engine = ScanEngine::new(EngineOptions {
        config: cfg,
        ..EngineOptions::default()
    });
    let mut scan = engine.scan(source.clone(), &sidecar, &spec).expect("plan");
    let batches: Vec<RecordBatch> = scan.by_ref().map(|b| b.expect("batch")).collect();
    let report = scan.report();
    assert_eq!(report.blocks_total, 20);
    assert_eq!(report.blocks_pruned, 17, "only blocks 2..=4 survive");

    // The surviving rows are exactly ids 2000..4800 (0.5 * 4800 - 3 == 2397).
    let ids = concat(&batches, "id");
    assert_eq!(ids, ColumnData::Int((2_000..4_800).collect()));
    assert_eq!(report.rows_matched, 2_800);

    // The fetch ledger agrees: no block outside 2..=4 of either involved
    // column ever reached the source.
    let fetched = source.fetched_blocks();
    assert!(!fetched.is_empty());
    for &(column, block) in &fetched {
        assert!(
            (2..=4).contains(&block),
            "pruned block fetched: column {column} block {block}"
        );
        assert!(column <= 1, "uninvolved column fetched: {column}");
    }
}

#[test]
fn scan_survives_transient_store_faults() {
    let cfg = config();
    let rel = build_relation(ROWS);
    let sidecar = Sidecar::build(&rel, BLOCK_SIZE);
    let compressed = btrblocks::compress(&rel, &cfg).expect("compress");
    let layout = RelationLayout::of(&compressed);
    let file = compressed.to_bytes();

    let store = Arc::new(ObjectStore::new());
    store.put("lake/rel.btr", file.clone());
    // Half the GET attempts fail; the per-(range, attempt) draw is
    // deterministic, so this test is stable.
    store.set_fault_plan(Some(FaultPlan::transient(0.5, 20_230_613)));
    let source = Arc::new(ObjectStoreSource::new(
        store,
        "lake/rel.btr",
        layout,
        RetryPolicy {
            max_attempts: 16,
            ..RetryPolicy::default()
        },
    ));

    let engine = ScanEngine::new(EngineOptions {
        config: cfg.clone(),
        ..EngineOptions::default()
    });
    let mut scan = engine.scan(source, &sidecar, &spec()).expect("plan");
    let batches: Vec<RecordBatch> = scan.by_ref().map(|b| b.expect("batch")).collect();
    let report = scan.report();

    assert!(
        report.fetch_retries > 0,
        "a 50% fault rate must force retries"
    );
    assert!(report.fetch_requests > report.fetch_retries);
    let (want_ids, want_tags) = decompress_then_filter(&file, &cfg);
    assert_eq!(concat(&batches, "id"), want_ids);
    assert_eq!(concat(&batches, "tag"), want_tags);
}
