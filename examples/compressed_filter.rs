//! Predicate pushdown on compressed data: evaluate filters directly on
//! compressed blocks (per-run / per-distinct-value instead of per-row) and
//! prune whole blocks with the zone-map sidecar — the "processing compressed
//! data" extension the paper's §7 sketches plus the §2.1 position that
//! statistics live outside the data file.
//!
//! Run with: `cargo run --release --example compressed_filter`

use btrblocks_repro::btrblocks::metadata::Sidecar;
use btrblocks_repro::btrblocks::{filter_block, CmpOp, Literal};
use btrblocks_repro::btrblocks::{self, Column, ColumnData, Config, Relation};
use btrblocks_repro::scan::{col, lit, EngineOptions, MemorySource, ScanEngine, ScanSpec};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let rows = 1_000_000usize;
    let cfg = Config::default();

    // An "events" table: sorted timestamps (block-prunable), a skewed status
    // code (RLE/dict-compressed), and an amount column.
    let rel = Relation::new(vec![
        Column::new("ts", ColumnData::Int((0..rows as i32).collect())),
        Column::new(
            "status",
            ColumnData::Int((0..rows).map(|i| [200, 200, 200, 404, 500][(i / 1000) % 5]).collect()),
        ),
        Column::new(
            "amount",
            ColumnData::Double((0..rows).map(|i| ((i * 7) % 10_000) as f64 * 0.01).collect()),
        ),
    ]);
    let compressed = Arc::new(btrblocks::compress(&rel, &cfg).expect("compress"));
    let sidecar = Sidecar::build(&rel, cfg.block_size);
    println!(
        "compressed {} rows into {} blocks/column (sidecar: {} bytes)\n",
        rows,
        compressed.columns[0].blocks.len(),
        sidecar.to_bytes().len()
    );

    // 1. Zone-map pruning on the sorted column: ts == 654_321 touches one
    //    row group; the scan engine never fetches the others.
    let blocks = compressed.columns[0].blocks.len();
    let engine = ScanEngine::new(EngineOptions {
        workers: 1,
        config: cfg.clone(),
        ..EngineOptions::default()
    });
    let source = Arc::new(MemorySource::new("events", compressed.clone()));
    let spec = ScanSpec::project(["ts"]).with_expr(col("ts").eq(lit(654_321)));
    let started = Instant::now();
    let mut scan = engine.scan(source, &sidecar, &spec).expect("plan");
    let matches: usize = scan.by_ref().map(|b| b.expect("batch").rows()).sum();
    let report = scan.report();
    println!(
        "ts == 654321   -> {} match, pruned {}/{} blocks, decoded {} ({:.2} ms)",
        matches,
        report.blocks_pruned,
        blocks,
        report.blocks_decoded,
        started.elapsed().as_secs_f64() * 1e3
    );

    // 2. Filter on compressed blocks vs decompress-then-filter.
    let status_col = &compressed.columns[1];
    let started = Instant::now();
    let mut hits = 0u64;
    for block in &status_col.blocks {
        let leaves = [(CmpOp::Eq, Literal::Int(404))];
        hits += filter_block(block, status_col.column_type, &leaves, &cfg)
            .expect("filter")
            .cardinality();
    }
    let pushed = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut hits_ref = 0usize;
    for block in &status_col.blocks {
        match btrblocks::block::decompress_block(block, status_col.column_type, &cfg).unwrap() {
            btrblocks::DecodedColumn::Int(v) => hits_ref += v.iter().filter(|&&x| x == 404).count(),
            _ => unreachable!(),
        }
    }
    let materialized = started.elapsed().as_secs_f64();
    assert_eq!(hits as usize, hits_ref);
    println!(
        "status == 404  -> {} matches; pushdown {:.2} ms vs decompress+filter {:.2} ms ({:.1}x)",
        hits,
        pushed * 1e3,
        materialized * 1e3,
        materialized / pushed
    );

    // 3. A two-leaf range on doubles through the scan engine: both leaves
    //    on `amount` run as one kernel pass per block.
    let (lo, hi) = (25.0, 75.0);
    let spec = ScanSpec::project(["amount"])
        .with_expr(col("amount").ge(lit(lo)).and(col("amount").lt(lit(hi))));
    let source = Arc::new(MemorySource::new("events", compressed.clone()));
    let started = Instant::now();
    let mut scan = engine.scan(source, &sidecar, &spec).expect("plan");
    let in_range: usize = scan.by_ref().map(|b| b.expect("batch").rows()).sum();
    let elapsed = started.elapsed().as_secs_f64();
    let report = scan.report();
    let ColumnData::Double(amounts) = &rel.columns[2].data else {
        unreachable!("amount is a double column")
    };
    let in_range_ref = amounts.iter().filter(|&&x| x >= lo && x < hi).count();
    assert_eq!(in_range, in_range_ref);
    println!(
        "{lo} <= amount < {hi} -> {in_range} matches, {} leaves answered on compressed blocks ({:.2} ms)",
        report.blocks_pushdown_fast_path,
        elapsed * 1e3
    );
}
