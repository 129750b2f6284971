//! Aggregates answer the same at every worker count and window.
//!
//! The relation: 8 row groups of 1,000 rows.
//!
//! * `k = i` (integer) and `e` (integer: `0, 2, 4, 6` repeating in groups
//!   0-3, `1, 3, 5, 7` in groups 4-7) drive the filters: `k >= 2500` prunes
//!   groups 0-1, leaves group 2 a residual selection and proves groups 3-7
//!   fully selected; `e == 3` survives the zone maps everywhere but selects
//!   no row of groups 0-3.
//! * `x` (double) mixes `1e16`, `1.0` and `-1e16`, so any regrouping or
//!   reordering of its `SUM` changes the bits.
//! * `o` (integer) is stored OneValue and `r` (double) RLE in every block, so
//!   their sums answer on the compressed rung.
//!
//! Every case runs at workers {1, 2, 4} x prefetch {1, 8} and must be
//! bit-identical to a naive ascending-row fold, with the same rung counts,
//! fetches and decodes at every setting. A relation with a corrupt block in
//! group 2 and another in group 5 fails with group 2's error at every
//! setting.

use btr_s3sim::{ObjectStore, RetryPolicy};
use btr_scan::{
    col, lit, AggReport, AggValue, Aggregate, BlockSource, EngineOptions, Expr, MemorySource,
    ObjectStoreSource, RelationLayout, ScanEngine, ScanError, ScanSpec,
};
use btrblocks::block::compress_block_with;
use btrblocks::{
    BlockRef, Column, ColumnData, CompressedRelation, Config, Relation, SchemeCode, Sidecar,
};
use std::sync::Arc;

const GROUPS: usize = 8;
const BLOCK_SIZE: usize = 1_000;
const ROWS: usize = GROUPS * BLOCK_SIZE;
/// Source column indices, in [`relation`]'s order.
const X: u32 = 2;
const R: u32 = 4;

const SETTINGS: [(usize, usize); 6] = [(1, 1), (1, 8), (2, 1), (2, 8), (4, 1), (4, 8)];

fn config() -> Config {
    Config {
        block_size: BLOCK_SIZE,
        ..Config::default()
    }
}

fn k(i: usize) -> i32 {
    i as i32
}

fn e(i: usize) -> i32 {
    let odd = i32::from(i / BLOCK_SIZE >= GROUPS / 2);
    (i % 4) as i32 * 2 + odd
}

fn x(i: usize) -> f64 {
    // Each group opens with 1e16 or -1e16 and adds 1.0 per row after that:
    // whether a 1.0 survives depends on what the sum carries in from the
    // groups before it.
    match (i % BLOCK_SIZE, i / BLOCK_SIZE % 3) {
        (0, 0) => 1e16,
        (0, _) => -1e16,
        _ => 1.0,
    }
}

fn o(i: usize) -> i32 {
    (i / BLOCK_SIZE) as i32 * 3 - 5
}

fn r(i: usize) -> f64 {
    0.1 * ((i / 100) % 7) as f64 + 0.3
}

fn relation() -> Relation {
    Relation::new(vec![
        Column::new("k", ColumnData::Int((0..ROWS).map(k).collect())),
        Column::new("e", ColumnData::Int((0..ROWS).map(e).collect())),
        Column::new("x", ColumnData::Double((0..ROWS).map(x).collect())),
        Column::new("o", ColumnData::Int((0..ROWS).map(o).collect())),
        Column::new("r", ColumnData::Double((0..ROWS).map(r).collect())),
    ])
}

/// The relation with `o` stored OneValue and `r` RLE in every block, plus
/// its zone maps.
fn compressed() -> (Sidecar, CompressedRelation) {
    let cfg = config();
    let rel = relation();
    let sidecar = Sidecar::build(&rel, BLOCK_SIZE);
    let mut compressed = btrblocks::compress(&rel, &cfg).expect("compress");
    for (c, code) in [(3, SchemeCode::OneValue), (R as usize, SchemeCode::Rle)] {
        for b in 0..GROUPS {
            let rows = b * BLOCK_SIZE..(b + 1) * BLOCK_SIZE;
            compressed.columns[c].blocks[b] = match &rel.columns[c].data {
                ColumnData::Int(v) => compress_block_with(code, BlockRef::Int(&v[rows]), &cfg),
                ColumnData::Double(v) => {
                    compress_block_with(code, BlockRef::Double(&v[rows]), &cfg)
                }
                ColumnData::Str(_) => unreachable!("o and r are numeric"),
            };
            compressed.columns[c].schemes[b] = code;
        }
    }
    (sidecar, compressed)
}

fn aggregates() -> Vec<Aggregate> {
    vec![
        Aggregate::sum("x"),
        Aggregate::count("k"),
        Aggregate::min("k"),
        Aggregate::max("x"),
        Aggregate::sum("o"),
        Aggregate::min("o"),
        Aggregate::sum("r"),
        Aggregate::max("r"),
    ]
}

/// A filter under test: its name, the scan's expression and the same
/// predicate over one row.
type Case = (&'static str, Option<Expr>, fn(usize) -> bool);

fn cases() -> Vec<Case> {
    vec![
        ("no filter", None, |_| true),
        ("k >= 2500", Some(col("k").ge(lit(2_500))), |i| {
            k(i) >= 2_500
        }),
        ("e == 3", Some(col("e").eq(lit(3))), |i| e(i) == 3),
    ]
}

/// [`aggregates`] folded row by row, in ascending row order, over the rows
/// `keep` selects.
fn naive(keep: fn(usize) -> bool) -> Vec<AggValue> {
    let rows: Vec<usize> = (0..ROWS).filter(|&i| keep(i)).collect();
    let mut sum_x = 0.0f64;
    let mut sum_r = 0.0f64;
    for &i in &rows {
        sum_x += x(i);
        sum_r += r(i);
    }
    let fmax = |f: fn(usize) -> f64| rows.iter().map(|&i| f(i)).reduce(f64::max);
    vec![
        AggValue::SumDouble(sum_x),
        AggValue::Count(rows.len() as u64),
        AggValue::MinInt(rows.iter().map(|&i| k(i)).min()),
        AggValue::MaxDouble(fmax(x)),
        AggValue::SumInt(rows.iter().map(|&i| i64::from(o(i))).sum()),
        AggValue::MinInt(rows.iter().map(|&i| o(i)).min()),
        AggValue::SumDouble(sum_r),
        AggValue::MaxDouble(fmax(r)),
    ]
}

/// An aggregate value with doubles as their bits, so `==` is bit identity.
fn bits(v: &AggValue) -> String {
    match v {
        AggValue::SumDouble(d) => format!("SumDouble({:#x})", d.to_bits()),
        AggValue::MinDouble(d) => format!("MinDouble({:?})", d.map(f64::to_bits)),
        AggValue::MaxDouble(d) => format!("MaxDouble({:?})", d.map(f64::to_bits)),
        other => format!("{other:?}"),
    }
}

fn engine(workers: usize, prefetch: usize) -> ScanEngine {
    ScanEngine::new(EngineOptions {
        workers,
        prefetch,
        config: config(),
        ..EngineOptions::default()
    })
}

#[test]
fn the_order_sensitive_sum_discriminates() {
    // Per-group partial sums, then summed: the regrouping a parallel fold
    // would do if it did not fold in block order.
    let mut regrouped = 0.0f64;
    for g in 0..GROUPS {
        let mut partial = 0.0f64;
        for i in g * BLOCK_SIZE..(g + 1) * BLOCK_SIZE {
            partial += x(i);
        }
        regrouped += partial;
    }
    let AggValue::SumDouble(ascending) = naive(|_| true)[0] else {
        unreachable!("the first aggregate is SUM(x)");
    };
    assert_ne!(
        ascending.to_bits(),
        regrouped.to_bits(),
        "SUM(x) must depend on grouping"
    );
    let mut reversed = 0.0f64;
    for g in (0..GROUPS).rev() {
        for i in g * BLOCK_SIZE..(g + 1) * BLOCK_SIZE {
            reversed += x(i);
        }
    }
    assert_ne!(
        ascending.to_bits(),
        reversed.to_bits(),
        "SUM(x) must depend on group order"
    );
}

#[test]
fn every_worker_count_and_window_folds_like_the_naive_loop() {
    let (sidecar, compressed) = compressed();
    let compressed = Arc::new(compressed);
    let spec_of = |expr: &Option<Expr>| {
        let spec = ScanSpec::aggregate(aggregates());
        match expr {
            Some(expr) => spec.with_expr(expr.clone()),
            None => spec,
        }
    };
    for (name, expr, keep) in cases() {
        let want: Vec<String> = naive(keep).iter().map(bits).collect();
        let mut first: Option<AggReport> = None;
        for (workers, prefetch) in SETTINGS {
            let at = format!("{name}, {workers} workers, prefetch {prefetch}");
            let source: Arc<dyn BlockSource> =
                Arc::new(MemorySource::new("parallel-agg", compressed.clone()));
            let report = engine(workers, prefetch)
                .aggregate(source, &sidecar, &spec_of(&expr))
                .unwrap_or_else(|e| panic!("{at}: {e}"));
            let got: Vec<String> = report.values.iter().map(bits).collect();
            assert_eq!(got, want, "{at}");
            let Some(first) = &first else {
                first = Some(report);
                continue;
            };
            assert_eq!(report.agg_sources, first.agg_sources, "{at}");
            assert_eq!(
                report.counters.blocks_fetched, first.counters.blocks_fetched,
                "{at}"
            );
            assert_eq!(
                report.counters.blocks_decoded, first.counters.blocks_decoded,
                "{at}"
            );
        }
        let first = first.expect("at least one setting ran");
        let sources = first.agg_sources;
        match name {
            // COUNT, MIN(k), MAX(x), MIN(o), MAX(r) from zones; SUM(o) and
            // SUM(r) compressed; SUM(x) decoded (or compressed, should the
            // codec ever pick RLE for it).
            "no filter" => {
                assert_eq!(sources.from_zones, 5 * GROUPS as u64, "{sources:?}");
                assert!(sources.from_compressed >= 2 * GROUPS as u64, "{sources:?}");
                assert_eq!(first.blocks_pruned, 0);
            }
            "k >= 2500" => {
                assert_eq!(first.blocks_pruned, 2);
                // Group 2's residual selection decodes every value-reading
                // aggregate; groups 3-7 still answer on the zone and
                // compressed rungs.
                assert!(sources.from_compressed >= 2 * 5, "{sources:?}");
                assert!(sources.from_decoded >= 7, "{sources:?}");
            }
            // Groups 0-3 select nothing and contribute nothing.
            _ => assert_eq!(
                sources.from_zones + sources.from_compressed + sources.from_decoded,
                (aggregates().len() * GROUPS / 2) as u64,
                "{sources:?}"
            ),
        }
    }
}

#[test]
fn a_corrupt_block_fails_with_the_first_failing_group_at_every_setting() {
    let (sidecar, compressed) = compressed();
    let layout = RelationLayout::of(&compressed);
    let mut bytes = compressed.to_bytes();
    for (column, block) in [(X, 2u32), (R, 5)] {
        let range = layout.columns[column as usize].blocks[block as usize];
        bytes[range.offset as usize + range.len as usize / 2] ^= 0x40;
    }
    let spec = ScanSpec::aggregate([Aggregate::sum("x"), Aggregate::sum("r")]);
    for (workers, prefetch) in SETTINGS {
        let store = Arc::new(ObjectStore::new());
        store.put("rel.btr", bytes.clone());
        let source: Arc<dyn BlockSource> = Arc::new(ObjectStoreSource::new(
            store,
            "rel.btr",
            layout.clone(),
            RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
        ));
        let got = engine(workers, prefetch).aggregate(source, &sidecar, &spec);
        assert_eq!(
            got.map(|r| r.values),
            Err(ScanError::Quarantined {
                column: X,
                block: 2
            }),
            "{workers} workers, prefetch {prefetch}"
        );
    }
}
