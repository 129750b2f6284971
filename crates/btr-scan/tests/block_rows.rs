//! A block whose value count disagrees with its row group (the sidecar's
//! row count) is a typed error on every scan path — never a panic, never
//! misaligned columns, never an aggregate over the wrong rows.
//!
//! The probe: block 1 of column `id` in a 3,000-row relation blocked by
//! 1,000 is swapped for a well-formed block of 10 or 1,010 values.

use btr_scan::chaos::{build_relation, drain};
use btr_scan::{
    col, lit, Aggregate, BlockSource, EngineOptions, MemorySource, ScanEngine, ScanError, ScanSpec,
};
use btrblocks::{BlockRef, CompressedRelation, Config, Sidecar};
use std::sync::Arc;

const ROWS: usize = 3_000;
const BLOCK_SIZE: usize = 1_000;

fn config() -> Config {
    Config {
        block_size: BLOCK_SIZE,
        ..Config::default()
    }
}

/// The relation's sidecar and its compressed form with block 1 of `id`
/// holding `values` values.
fn swapped(values: usize) -> (Sidecar, Arc<CompressedRelation>) {
    let cfg = config();
    let rel = build_relation(ROWS);
    let sidecar = Sidecar::build(&rel, BLOCK_SIZE);
    let mut compressed = btrblocks::compress(&rel, &cfg).expect("compress");
    let ids: Vec<i32> = (1_000..1_000 + values as i32).collect();
    let (block, code) = btrblocks::compress_block(BlockRef::Int(&ids), &cfg);
    compressed.columns[0].blocks[1] = block;
    compressed.columns[0].schemes[1] = code;
    (sidecar, Arc::new(compressed))
}

fn expected(values: usize) -> ScanError {
    ScanError::BlockRowCount {
        column: "id".into(),
        block: 1,
        expected: BLOCK_SIZE,
        got: values,
    }
}

#[test]
fn scans_reject_a_block_with_the_wrong_row_count() {
    let specs = [
        ScanSpec::project(["id", "val", "tag"]),
        ScanSpec::project(["val", "id"]).with_expr(col("val").ge(lit(0.0))),
        ScanSpec::project(["tag", "id"]).with_expr(col("id").lt(lit(2_500))),
        ScanSpec::project(["val"]).with_expr(col("id").lt(lit(1_500))),
    ];
    for values in [10, 1_010] {
        let (sidecar, compressed) = swapped(values);
        for workers in [1, 2] {
            // One engine per worker count, so later specs also meet the bad
            // block through the decoded-block cache.
            let engine = ScanEngine::new(EngineOptions {
                workers,
                prefetch: 2,
                batch_rows: 700,
                config: config(),
                ..EngineOptions::default()
            });
            for (i, spec) in specs.iter().enumerate() {
                let source: Arc<dyn BlockSource> =
                    Arc::new(MemorySource::new("rel", compressed.clone()));
                let scan = engine.scan(source, &sidecar, spec).expect("plans");
                let got = drain(scan).map(|columns| columns.len());
                let at = format!("{values} values, {workers} workers, spec {i}");
                assert_eq!(got, Err(expected(values)), "{at}");
            }
        }
    }
}

#[test]
fn aggregates_reject_a_block_with_the_wrong_row_count() {
    for values in [10, 1_010] {
        let (sidecar, compressed) = swapped(values);
        let engine = ScanEngine::new(EngineOptions {
            workers: 1,
            config: config(),
            ..EngineOptions::default()
        });
        let specs = [
            ScanSpec::aggregate([Aggregate::count("id"), Aggregate::sum("id")]),
            ScanSpec::aggregate([Aggregate::sum("id")]).with_expr(col("val").ge(lit(0.0))),
        ];
        for (i, spec) in specs.iter().enumerate() {
            let source: Arc<dyn BlockSource> =
                Arc::new(MemorySource::new("rel", compressed.clone()));
            let got = engine.aggregate(source, &sidecar, spec).map(|r| r.values);
            assert_eq!(got, Err(expected(values)), "{values} values, spec {i}");
        }
    }
}
