//! End-to-end integration tests spanning the whole workspace: generators →
//! every storage format → the scan executor over the simulated object store.

use btrblocks_repro::btrblocks::{
    self, Column, ColumnData, Config, Relation, Sidecar, StringArena,
};
use btrblocks_repro::datagen::{dataset_relation, pbi, tpch};
use btrblocks_repro::lz::Codec;
use btrblocks_repro::s3sim::{FaultPlan, ObjectStore, RetryPolicy};
use btrblocks_repro::scan::chaos::drain;
use btrblocks_repro::scan::{
    EngineOptions, ObjectStoreSource, RelationLayout, ScanEngine, ScanReport, ScanSpec,
};
use btrblocks_repro::{orc_lite, parquet_lite};
use std::sync::Arc;

fn pbi_relation(rows: usize) -> Relation {
    dataset_relation(pbi::registry(rows, 99))
}

fn tpch_relation(rows: usize) -> Relation {
    dataset_relation(tpch::registry(rows, 99))
}

#[test]
fn btrblocks_roundtrips_generated_datasets() {
    let cfg = Config::default();
    for rel in [pbi_relation(5_000), tpch_relation(5_000)] {
        let bytes = btrblocks::compress(&rel, &cfg).unwrap().to_bytes();
        assert!(bytes.len() < rel.heap_size());
        assert_eq!(btrblocks::decompress(&bytes, &cfg).unwrap(), rel);
    }
}

#[test]
fn btrblocks_multi_block_roundtrip() {
    // Force several blocks per column.
    let cfg = Config {
        block_size: 1_000,
        ..Config::default()
    };
    let rel = pbi_relation(4_321);
    let bytes = btrblocks::compress(&rel, &cfg).unwrap().to_bytes();
    assert_eq!(btrblocks::decompress(&bytes, &cfg).unwrap(), rel);
}

#[test]
fn parquet_lite_roundtrips_generated_datasets() {
    for rel in [pbi_relation(5_000), tpch_relation(5_000)] {
        for codec in [Codec::None, Codec::SnappyLike, Codec::Heavy] {
            let bytes = parquet_lite::write(
                &rel,
                &parquet_lite::WriteOptions {
                    codec,
                    rowgroup_size: 1_500,
                },
            );
            assert_eq!(parquet_lite::read(&bytes).unwrap(), rel, "codec {codec:?}");
        }
    }
}

#[test]
fn orc_lite_roundtrips_generated_datasets() {
    for rel in [pbi_relation(5_000), tpch_relation(5_000)] {
        for codec in [Codec::None, Codec::SnappyLike, Codec::Heavy] {
            let bytes = orc_lite::write(
                &rel,
                &orc_lite::WriteOptions {
                    codec,
                    stripe_rows: 1_500,
                    ..orc_lite::WriteOptions::default()
                },
            );
            assert_eq!(orc_lite::read(&bytes).unwrap(), rel, "codec {codec:?}");
        }
    }
}

#[test]
fn projection_reads_agree_across_formats() {
    let rel = pbi_relation(3_000);
    let pq = parquet_lite::write(&rel, &parquet_lite::WriteOptions::default());
    let orc = orc_lite::write(&rel, &orc_lite::WriteOptions::default());
    for (ci, col) in rel.columns.iter().enumerate() {
        assert_eq!(&parquet_lite::read_column(&pq, ci).unwrap(), col);
        assert_eq!(&orc_lite::read_column(&orc, ci).unwrap(), col);
    }
}

/// Uploads `rel` to a fresh store, scans every column through the executor
/// and checks the drained batches against the input. Returns the store and
/// the scan's report.
fn scan_from_store(rel: &Relation, plan: Option<FaultPlan>) -> (Arc<ObjectStore>, ScanReport) {
    let cfg = Config {
        block_size: 500,
        ..Config::default()
    };
    let compressed = btrblocks::compress(rel, &cfg).unwrap();
    let store = Arc::new(ObjectStore::new());
    store.put("pbi.btr", compressed.to_bytes());
    store.set_fault_plan(plan);
    let source = Arc::new(ObjectStoreSource::new(
        store.clone(),
        "pbi.btr",
        RelationLayout::of(&compressed),
        RetryPolicy::default(),
    ));
    let engine = ScanEngine::new(EngineOptions {
        config: cfg.clone(),
        workers: 2,
        ..EngineOptions::default()
    });
    let sidecar = Sidecar::build(rel, cfg.block_size);
    let spec = ScanSpec::project(rel.columns.iter().map(|c| c.name.clone()));
    let mut scan = engine.scan(source, &sidecar, &spec).unwrap();
    let got = drain(scan.by_ref()).unwrap();
    assert_eq!(got.len(), rel.columns.len());
    for (col, (name, data)) in rel.columns.iter().zip(&got) {
        assert_eq!((&col.name, &col.data), (name, data));
    }
    (store, scan.report())
}

#[test]
fn s3_scan_reproduces_stored_data() {
    let rel = pbi_relation(2_000);

    // Under transient faults the rows still come back, and every attempt —
    // failed ones included — is a GET the store billed (paper §6.7). Both
    // sides count per attempt, so the request counts are equal.
    let (store, report) = scan_from_store(&rel, Some(FaultPlan::transient(0.10, 42)));
    assert!(report.fetch_retries > 0, "a 10% plan over 156 block GETs retries");
    assert!(report.fetch_backoff_seconds > 0.0);
    assert_eq!(report.fetch_requests, store.counters().requests());
    assert_eq!(report.fetch_requests, report.blocks_fetched + report.fetch_retries);

    // Fault-free, the bytes agree as well: one ranged GET per block payload,
    // nothing else read from the object.
    let (store, report) = scan_from_store(&rel, None);
    assert_eq!(report.fetch_retries, 0);
    assert_eq!(report.fetch_requests, store.counters().requests());
    assert_eq!(report.bytes_fetched, store.counters().bytes_served);
    assert_eq!(store.counters().get_requests, 0, "only ranged GETs");
}

#[test]
fn scheme_selection_sanity_on_known_distributions() {
    use btrblocks::SchemeCode;
    let cfg = Config::default();
    let cases: Vec<(Relation, SchemeCode)> = vec![
        // Constant column → OneValue.
        (
            Relation::new(vec![Column::new("c", ColumnData::Int(vec![7; 64_000]))]),
            SchemeCode::OneValue,
        ),
        // Long runs → RLE.
        (
            Relation::new(vec![Column::new(
                "r",
                ColumnData::Int((0..64_000).map(|i| i / 2_000).collect()),
            )]),
            SchemeCode::Rle,
        ),
        // One dominant value with rare precise exceptions → Frequency.
        (
            Relation::new(vec![Column::new(
                "f",
                ColumnData::Double(
                    (0..64_000)
                        .map(|i| if i % 23 == 0 { 1.0 + i as f64 * 1e-7 } else { 83.2833 })
                        .collect(),
                ),
            )]),
            SchemeCode::Frequency,
        ),
    ];
    for (rel, expected) in cases {
        let compressed = btrblocks::compress(&rel, &cfg).unwrap();
        assert_eq!(
            compressed.columns[0].schemes[0], expected,
            "column {:?}",
            rel.columns[0].name
        );
    }
}

#[test]
fn nulls_survive_the_full_pipeline() {
    use btrblocks_repro::roaring::RoaringBitmap;
    let cfg = Config::default();
    let nulls = RoaringBitmap::from_sorted_iter((0..1_000).step_by(13).map(|i| i as u32));
    let values: Vec<i32> = (0..1_000)
        .map(|i| if i % 13 == 0 { 0 } else { i })
        .collect();
    let rel = Relation::new(vec![Column::with_nulls("n", ColumnData::Int(values), nulls.clone())]);
    let restored = btrblocks::decompress(&btrblocks::compress(&rel, &cfg).unwrap().to_bytes(), &cfg).unwrap();
    assert_eq!(restored.columns[0].nulls.as_ref(), Some(&nulls));
}

#[test]
fn string_views_match_materialized_arena() {
    let cfg = Config::default();
    let strings: Vec<String> = (0..10_000).map(|i| format!("view-{}", i % 321)).collect();
    let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
    let arena = StringArena::from_strs(&refs);
    let rel = Relation::new(vec![Column::new("s", ColumnData::Str(arena.clone()))]);
    let compressed = btrblocks::compress(&rel, &cfg).unwrap();

    // Block-level scan API hands out views; they must agree with the arena.
    let col = &compressed.columns[0];
    let mut idx = 0usize;
    for block in &col.blocks {
        match btrblocks::block::decompress_block(block, col.column_type, &cfg).unwrap() {
            btrblocks::DecodedColumn::Str(views) => {
                for i in 0..views.len() {
                    assert_eq!(views.get(i), arena.get(idx));
                    idx += 1;
                }
            }
            other => panic!("expected strings, got {other:?}"),
        }
    }
    assert_eq!(idx, arena.len());
}

#[test]
fn scalar_and_simd_decompression_agree_on_generated_data() {
    let auto = Config::default();
    let scalar = Config {
        simd: btrblocks::SimdMode::ForceScalar,
        ..Config::default()
    };
    let rel = pbi_relation(3_000);
    let bytes = btrblocks::compress(&rel, &auto).unwrap().to_bytes();
    let a = btrblocks::decompress(&bytes, &auto).unwrap();
    let b = btrblocks::decompress(&bytes, &scalar).unwrap();
    assert_eq!(a, b);
}

#[test]
fn compression_is_deterministic() {
    let cfg = Config::default();
    let rel = pbi_relation(2_000);
    let a = btrblocks::compress(&rel, &cfg).unwrap().to_bytes();
    let b = btrblocks::compress(&rel, &cfg).unwrap().to_bytes();
    assert_eq!(a, b);
}
