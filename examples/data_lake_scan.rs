//! Data-lake scan: write a dataset to the simulated object store in three
//! formats, scan it back, and price each scan with the paper's cost model —
//! the headline experiment (Figure 1) as a runnable example.
//!
//! The BtrBlocks object is scanned by the real executor (`ScanEngine` over
//! `ObjectStoreSource`: one ranged GET per block), and its row of the table
//! is what the scan's `ScanReport` accounted. The Parquet rows still fetch
//! whole 16 MB chunks and time `parquet_lite::read` directly, until the
//! baselines sit behind `BlockSource` too (ROADMAP item 3).
//!
//! Run with: `cargo run --release --example data_lake_scan`

use btrblocks_repro::btrblocks::{self, Config, Relation, Sidecar};
use btrblocks_repro::datagen::{dataset_relation, pbi};
use btrblocks_repro::lz::Codec;
use btrblocks_repro::parquet_lite;
use btrblocks_repro::s3sim::{CostModel, ObjectStore, RetryPolicy, ScanStats, DEFAULT_CHUNK};
use btrblocks_repro::scan::chaos::drain;
use btrblocks_repro::scan::{
    EngineOptions, ObjectStoreSource, RelationLayout, ScanEngine, ScanSpec,
};
use std::sync::Arc;
use std::time::Instant;

/// The cost model's view of one scan of `relation`: `cpu` host seconds of
/// decoding spread over the model's cores, overlapped with the simulated
/// network time, plus simulated retry backoff.
fn stats(relation: &Relation, requests: u64, bytes: u64, cpu: f64, backoff: f64) -> ScanStats {
    let model = CostModel::default();
    let network_seconds = model.network_seconds(bytes, requests);
    let cpu_seconds = cpu / model.cores as f64;
    ScanStats {
        requests,
        compressed_bytes: bytes,
        uncompressed_bytes: relation.heap_size() as u64,
        network_seconds,
        cpu_seconds,
        duration_seconds: network_seconds.max(cpu_seconds) + backoff,
    }
}

/// Uploads `relation` as one BtrBlocks object, scans every column through the
/// executor, checks the rows, and prices what the scan's report accounted.
fn scan_btrblocks(store: &Arc<ObjectStore>, relation: &Relation) -> ScanStats {
    let cfg = Config::default();
    let compressed = btrblocks::compress(relation, &cfg).expect("compress");
    store.put("btrblocks", compressed.to_bytes());
    let source = Arc::new(ObjectStoreSource::new(
        store.clone(),
        "btrblocks",
        RelationLayout::of(&compressed),
        RetryPolicy::default(),
    ));
    let engine = ScanEngine::new(EngineOptions::default());
    let sidecar = Sidecar::build(relation, cfg.block_size);
    let spec = ScanSpec::project(relation.columns.iter().map(|c| c.name.clone()));
    let mut scan = engine.scan(source, &sidecar, &spec).expect("plan");
    let restored = drain(scan.by_ref()).expect("scan");
    assert_eq!(restored.len(), relation.columns.len());
    for (col, (name, data)) in relation.columns.iter().zip(&restored) {
        assert_eq!(
            (&col.name, &col.data),
            (name, data),
            "btrblocks: scan must reproduce the data"
        );
    }
    let report = scan.report();
    stats(
        relation,
        report.fetch_requests,
        report.bytes_fetched,
        report.decode_seconds,
        report.fetch_backoff_seconds,
    )
}

/// Uploads a Parquet file as 16 MB chunks, fetches them back whole and times
/// the read; GETs and bytes are what the store billed.
fn scan_parquet(store: &ObjectStore, name: &str, bytes: &[u8], relation: &Relation) -> ScanStats {
    let keys = store.put_chunked(name, bytes, DEFAULT_CHUNK);
    let before = store.counters();
    let assembled: Vec<u8> = keys
        .iter()
        .flat_map(|k| store.get(k).expect("uploaded").as_ref().clone())
        .collect();
    let billed = store.counters();
    let started = Instant::now();
    let restored = parquet_lite::read(&assembled).expect("read");
    let cpu = started.elapsed().as_secs_f64();
    assert_eq!(&restored, relation, "{name}: scan must reproduce the data");
    stats(
        relation,
        billed.requests() - before.requests(),
        billed.bytes_served - before.bytes_served,
        cpu,
        0.0,
    )
}

fn main() {
    let rows = 64_000;
    let seed = 7;
    let relation = dataset_relation(pbi::registry(rows, seed));
    let heap = relation.heap_size();
    println!(
        "dataset: {} columns x {} rows = {:.1} MB uncompressed\n",
        relation.columns.len(),
        rows,
        heap as f64 / 1e6
    );

    let store = Arc::new(ObjectStore::new());
    let parquet = |codec| {
        parquet_lite::write(
            &relation,
            &parquet_lite::WriteOptions {
                codec,
                ..parquet_lite::WriteOptions::default()
            },
        )
    };
    let scans = [
        ("btrblocks", scan_btrblocks(&store, &relation)),
        (
            "parquet",
            scan_parquet(&store, "parquet", &parquet(Codec::None), &relation),
        ),
        (
            "parquet+snappy",
            scan_parquet(
                &store,
                "parquet+snappy",
                &parquet(Codec::SnappyLike),
                &relation,
            ),
        ),
    ];

    println!(
        "{:<16} {:>6} {:>10} {:>8} {:>12} {:>14} {:>12}",
        "format", "GETs", "fetched MB", "ratio", "T_c Gbit/s", "duration ms", "cost $/scan"
    );
    for (name, stats) in scans {
        println!(
            "{:<16} {:>6} {:>10.2} {:>8.2} {:>12.1} {:>14.3} {:>12.8}",
            name,
            stats.requests,
            stats.compressed_bytes as f64 / 1e6,
            heap as f64 / stats.compressed_bytes as f64,
            stats.t_c_gbit_per_s(),
            stats.duration_seconds * 1e3,
            CostModel::default().scan_cost_usd(&stats),
        );
    }
    println!("\n(scan cost = instance time at $3.89/h + $0.0004 per 1000 GETs.");
    println!(" btrblocks: one ranged GET per block, as the executor issued them; at this size");
    println!(
        " their first-byte latency outweighs the bytes saved - the paper fetches 16 MB chunks)"
    );
}
