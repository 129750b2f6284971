//! A row group fetches each block at most once, whichever stages read it.
//!
//! The relation: 4 row groups of 1,000 rows with `d = i % 7` (integer Dict),
//! `s = "value-{i % 17}"` (string Dict), `v` (double) and `k` (integer).
//! Every block of `d` and `s` spans the same values, so zone maps prune
//! nothing and every conjunct runs on every group.
//!
//! * Two leaves on `d` plus a projection of `d` read each block of `d` once:
//!   one cache miss, one fetch and one decode per group.
//! * A string Dict block has no compressed-domain kernel: the leaf decodes it
//!   once (counted), and the projection reuses that decode.
//! * Over an object store, GETs equal the distinct blocks read.
//! * `COUNT(k)` under a residual filter is answered from the selection,
//!   without fetching `k`, at one worker and at two.

use btr_s3sim::{ObjectStore, RetryPolicy};
use btr_scan::{
    col, lit, AggValue, Aggregate, BlockSource, EngineOptions, FetchCtl, FetchStats, MemorySource,
    ObjectStoreSource, RelationLayout, ScanEngine, ScanReport, ScanSpec, SourceColumn,
};
use btrblocks::block::compress_block_with;
use btrblocks::{
    BlockRef, Column, ColumnData, CompressedRelation, Config, Relation, SchemeCode, Sidecar,
    StringArena,
};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

const GROUPS: usize = 4;
const BLOCK_SIZE: usize = 1_000;
const ROWS: usize = GROUPS * BLOCK_SIZE;
const D: u32 = 0;
const K: u32 = 3;

fn config() -> Config {
    Config {
        block_size: BLOCK_SIZE,
        ..Config::default()
    }
}

fn d_values() -> Vec<i32> {
    (0..ROWS as i32).map(|i| i % 7).collect()
}

fn v_values() -> Vec<f64> {
    (0..ROWS).map(|i| (i % 13) as f64 * 0.5).collect()
}

fn relation() -> Relation {
    let strings: Vec<String> = (0..ROWS).map(|i| format!("value-{}", i % 17)).collect();
    let refs: Vec<&str> = strings.iter().map(String::as_str).collect();
    Relation::new(vec![
        Column::new("d", ColumnData::Int(d_values())),
        Column::new("s", ColumnData::Str(StringArena::from_strs(&refs))),
        Column::new("v", ColumnData::Double(v_values())),
        Column::new("k", ColumnData::Int((0..ROWS as i32).collect())),
    ])
}

/// The relation with every block of `d` and `s` forced to Dict, plus its
/// zone maps.
fn compressed() -> (Sidecar, CompressedRelation) {
    let cfg = config();
    let rel = relation();
    let sidecar = Sidecar::build(&rel, BLOCK_SIZE);
    let mut compressed = btrblocks::compress(&rel, &cfg).expect("compress");
    for (c, column) in rel.columns.iter().enumerate().take(2) {
        for b in 0..GROUPS {
            let rows = b * BLOCK_SIZE..(b + 1) * BLOCK_SIZE;
            compressed.columns[c].blocks[b] = match &column.data {
                ColumnData::Int(v) => {
                    compress_block_with(SchemeCode::Dict, BlockRef::Int(&v[rows]), &cfg)
                }
                ColumnData::Str(a) => {
                    let mut part = StringArena::new();
                    part.extend_from_range(a, rows);
                    compress_block_with(SchemeCode::Dict, BlockRef::Str(&part), &cfg)
                }
                ColumnData::Double(_) => unreachable!("d and s are int and string"),
            };
            compressed.columns[c].schemes[b] = SchemeCode::Dict;
        }
    }
    (sidecar, compressed)
}

/// Wraps a source and records every `(column, block)` fetched.
struct Recording {
    inner: Arc<dyn BlockSource>,
    fetched: Mutex<Vec<(u32, u32)>>,
}

impl Recording {
    fn new(inner: Arc<dyn BlockSource>) -> Arc<Recording> {
        Arc::new(Recording {
            inner,
            fetched: Mutex::new(Vec::new()),
        })
    }

    fn fetched(&self) -> Vec<(u32, u32)> {
        self.fetched.lock().expect("ledger lock").clone()
    }
}

impl BlockSource for Recording {
    fn relation_id(&self) -> Arc<str> {
        self.inner.relation_id()
    }
    fn rows(&self) -> u64 {
        self.inner.rows()
    }
    fn columns(&self) -> Vec<SourceColumn> {
        self.inner.columns()
    }
    fn fetch(&self, column: u32, block: u32) -> btr_scan::Result<Vec<u8>> {
        self.fetch_ctl(column, block, &FetchCtl::default())
    }
    fn fetch_ctl(&self, column: u32, block: u32, ctl: &FetchCtl) -> btr_scan::Result<Vec<u8>> {
        self.fetched.lock().expect("ledger lock").push((column, block));
        self.inner.fetch_ctl(column, block, ctl)
    }
    fn stats(&self) -> FetchStats {
        self.inner.stats()
    }
}

fn engine(workers: usize) -> ScanEngine {
    ScanEngine::new(EngineOptions {
        workers,
        config: config(),
        ..EngineOptions::default()
    })
}

/// Scans `spec` to the end and returns its report and its row count.
fn scan(source: Arc<dyn BlockSource>, sidecar: &Sidecar, spec: &ScanSpec) -> (ScanReport, usize) {
    let engine = engine(2);
    let mut scan = engine.scan(source, sidecar, spec).expect("plans");
    let rows = scan.by_ref().map(|b| b.expect("batch").rows()).sum();
    (scan.report(), rows)
}

fn range_on_d() -> ScanSpec {
    ScanSpec::project(["d"]).with_expr(col("d").ge(lit(2)).and(col("d").lt(lit(5))))
}

fn rows_in_range() -> usize {
    d_values().iter().filter(|&&d| (2..5).contains(&d)).count()
}

#[test]
fn two_leaves_and_a_projection_read_each_block_once() {
    let (sidecar, compressed) = compressed();
    let source = Arc::new(MemorySource::new("fetch-once", Arc::new(compressed)));
    let (report, rows) = scan(source, &sidecar, &range_on_d());
    assert_eq!(rows, rows_in_range());
    assert_eq!(report.blocks_pruned, 0);
    assert_eq!(report.blocks_fetched, GROUPS as u64, "{report:?}");
    assert_eq!(report.cache_misses, GROUPS as u64, "{report:?}");
    assert_eq!(report.blocks_decoded, GROUPS as u64, "{report:?}");
    assert_eq!(report.blocks_pushdown_fast_path, 2 * GROUPS as u64, "{report:?}");
}

#[test]
fn a_string_dict_leaf_decodes_once_and_is_not_a_fast_path() {
    let (sidecar, compressed) = compressed();
    let source = Arc::new(MemorySource::new("fetch-once-str", Arc::new(compressed)));
    let spec = ScanSpec::project(["s"]).with_expr(col("s").eq(lit("value-3")));
    let (report, rows) = scan(source, &sidecar, &spec);
    assert_eq!(rows, (0..ROWS).filter(|i| i % 17 == 3).count());
    assert_eq!(report.blocks_pushdown_fast_path, 0, "{report:?}");
    assert_eq!(report.blocks_decoded, GROUPS as u64, "{report:?}");
    assert_eq!(report.blocks_fetched, GROUPS as u64, "{report:?}");
}

#[test]
fn object_store_gets_equal_the_distinct_blocks_read() {
    let (sidecar, compressed) = compressed();
    let store = Arc::new(ObjectStore::new());
    store.put("lake/fetch-once.btr", compressed.to_bytes());
    let inner = Arc::new(ObjectStoreSource::new(
        store.clone(),
        "lake/fetch-once.btr",
        RelationLayout::of(&compressed),
        RetryPolicy::default(),
    ));
    let source = Recording::new(inner);
    let (report, rows) = scan(source.clone(), &sidecar, &range_on_d());
    assert_eq!(rows, rows_in_range());
    let distinct: HashSet<(u32, u32)> = source.fetched().into_iter().collect();
    let want: HashSet<(u32, u32)> = (0..GROUPS as u32).map(|b| (D, b)).collect();
    assert_eq!(distinct, want);
    assert_eq!(report.fetch_requests, distinct.len() as u64, "{report:?}");
    assert_eq!(store.counters().ranged_get_requests, distinct.len() as u64);
}

#[test]
fn count_under_a_residual_filter_fetches_nothing_of_its_column() {
    let (sidecar, compressed) = compressed();
    let compressed = Arc::new(compressed);
    let spec = ScanSpec::aggregate([Aggregate::sum("v"), Aggregate::count("k")])
        .with_expr(col("d").ge(lit(2)).and(col("d").lt(lit(5))));
    let (d, v) = (d_values(), v_values());
    let mut sum = 0.0f64;
    for (_, x) in d.iter().zip(&v).filter(|(d, _)| (2..5).contains(*d)) {
        sum += x;
    }
    for workers in [1, 2] {
        let inner = Arc::new(MemorySource::new("fetch-once-agg", compressed.clone()));
        let source = Recording::new(inner);
        let report = engine(workers)
            .aggregate(source.clone(), &sidecar, &spec)
            .expect("aggregates");
        assert_eq!(
            report.values,
            vec![
                AggValue::SumDouble(sum),
                AggValue::Count(rows_in_range() as u64)
            ],
            "{workers} workers"
        );
        let fetched = source.fetched();
        assert!(
            fetched.iter().all(|&(column, _)| column != K),
            "{workers} workers: COUNT(k) fetched a block of k: {fetched:?}"
        );
        assert_eq!(fetched.len(), 2 * GROUPS, "{workers} workers: d and v once per group: {fetched:?}");
    }
}
