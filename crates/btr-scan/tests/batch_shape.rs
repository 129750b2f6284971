//! Engine differential over batch sizes, worker counts and filters.
//!
//! Every case scans one four-group relation (int, double and string columns;
//! strings that are empty, hold 0x00 bytes or are longer than 8 bytes)
//! compressed twice: once with Dict string blocks, whose decoded views are
//! not contiguous in their pool, and once with FSST or Uncompressed ones,
//! whose views are. The concatenated batches must equal a naive row-by-row
//! filter over the uncompressed relation, and the report's `rows_matched`
//! must agree with it. Every batch holds 1..=`batch_rows` rows of one row
//! group: a group with `m` matches yields ⌈m / `batch_rows`⌉ batches, only
//! its last one short, and a group with none yields no batch.

use btr_scan::batch::append;
use btr_scan::{col, lit, EngineOptions, MemorySource, RecordBatch, ScanEngine, ScanSpec};
use btrblocks::{
    Column, ColumnData, CompressedRelation, Config, Relation, SchemeCode, Sidecar, StringArena,
};
use std::sync::Arc;

const GROUP_ROWS: usize = 1_000;
const GROUPS: usize = 4;
const ROWS: usize = GROUP_ROWS * GROUPS;

/// Row `i`'s tag: 29 distinct strings, so Dict is worth choosing.
fn tag(i: usize) -> Vec<u8> {
    match i % 29 {
        0 => Vec::new(),
        1 => vec![0],
        2 => b"\0mid\0".to_vec(),
        k if k % 2 == 0 => format!("a string longer than eight bytes #{k}").into_bytes(),
        k => format!("s{k}").into_bytes(),
    }
}

fn val(i: usize) -> f64 {
    ((i * 7_919) % 1_000) as f64 * 0.5 - 100.0
}

fn relation() -> Relation {
    let tags: Vec<Vec<u8>> = (0..ROWS).map(tag).collect();
    Relation::new(vec![
        Column::new("id", ColumnData::Int((0..ROWS).map(|i| i as i32).collect())),
        Column::new("val", ColumnData::Double((0..ROWS).map(val).collect())),
        Column::new("tag", ColumnData::Str(StringArena::from_strs(&tags))),
    ])
}

/// A filter as the engine sees it and as the naive reference applies it.
struct Filter {
    name: &'static str,
    spec: ScanSpec,
    keep: fn(usize) -> bool,
}

fn filters() -> Vec<Filter> {
    let all = ScanSpec::project(["id", "val", "tag"]);
    vec![
        Filter { name: "no filter", spec: all.clone(), keep: |_| true },
        Filter {
            name: "range",
            spec: all.clone().with_expr(col("id").ge(lit(1_300)).and(col("id").lt(lit(2_900)))),
            keep: |i| (1_300..2_900).contains(&i),
        },
        Filter {
            name: "sparse multi-column",
            spec: all.with_expr(
                col("val")
                    .lt(lit(-60.0))
                    .and(col("tag").ge(lit("s")))
                    .and(col("id").lt(lit(3_000)).or(col("id").ge(lit(5_000)))),
            ),
            keep: |i| val(i) < -60.0 && tag(i).as_slice() >= b"s".as_slice() && i < 3_000,
        },
    ]
}

/// The relation compressed under `pool`, and the config it was compressed
/// with.
fn compress(rel: &Relation, pool: &[SchemeCode]) -> (Arc<CompressedRelation>, Config) {
    let config = Config { block_size: GROUP_ROWS, ..Config::default() }.with_pool(pool);
    let compressed = btrblocks::compress(rel, &config).expect("compress");
    (Arc::new(compressed), config)
}

/// The naive filter's rows of every column, in row order.
fn expected(rel: &Relation, keep: fn(usize) -> bool) -> Vec<ColumnData> {
    let rows: Vec<usize> = (0..ROWS).filter(|&i| keep(i)).collect();
    rel.columns
        .iter()
        .map(|c| match &c.data {
            ColumnData::Int(v) => ColumnData::Int(rows.iter().map(|&i| v[i]).collect()),
            ColumnData::Double(v) => ColumnData::Double(rows.iter().map(|&i| v[i]).collect()),
            ColumnData::Str(a) => ColumnData::Str(a.gather(rows.iter().copied())),
        })
        .collect()
}

/// The batch sizes the contract allows exactly: each group's matches cut
/// into `batch_rows`-row batches, the last one short.
fn expected_sizes(keep: fn(usize) -> bool, batch_rows: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    for g in 0..GROUPS {
        let mut m = (g * GROUP_ROWS..(g + 1) * GROUP_ROWS).filter(|&i| keep(i)).count();
        while m > 0 {
            sizes.push(m.min(batch_rows));
            m -= m.min(batch_rows);
        }
    }
    sizes
}

/// Every batch's columns appended in order, one buffer per column.
fn concat(batches: &[RecordBatch], template: &[ColumnData]) -> Vec<ColumnData> {
    let mut out: Vec<ColumnData> =
        template.iter().map(|c| btr_scan::batch::empty_like(c.column_type())).collect();
    for batch in batches {
        for (dst, (_, src)) in out.iter_mut().zip(&batch.columns) {
            append(dst, src).expect("one type per column");
        }
    }
    out
}

#[test]
fn batches_match_a_naive_filter_for_every_shape() {
    let rel = relation();
    let sidecar = Sidecar::build(&rel, GROUP_ROWS);
    let layouts = [
        ("Dict", &[SchemeCode::Dict][..], &[SchemeCode::Dict][..]),
        ("FSST", &[SchemeCode::Fsst][..], &[SchemeCode::Fsst, SchemeCode::Uncompressed][..]),
    ];
    for (layout, pool, string_roots) in layouts {
        let (compressed, config) = compress(&rel, pool);
        let roots = &compressed.columns[2].schemes;
        assert!(
            roots.iter().all(|s| string_roots.contains(s)),
            "{layout}: string roots {roots:?}"
        );
        for filter in filters() {
            let want = expected(&rel, filter.keep);
            for batch_rows in [1, 700, 4_096, GROUP_ROWS + 500] {
                for workers in [1, 2] {
                    let at = format!("{layout}, {}, batch_rows {batch_rows}", filter.name);
                    let at = format!("{at}, workers {workers}");
                    let engine = ScanEngine::new(EngineOptions {
                        workers,
                        prefetch: 2,
                        batch_rows,
                        cache_bytes: 16 << 20,
                        config: config.clone(),
                    });
                    let source = Arc::new(MemorySource::new("rel", compressed.clone()));
                    let mut scan = engine.scan(source, &sidecar, &filter.spec).expect("plan");
                    let batches: Vec<RecordBatch> =
                        scan.by_ref().map(|b| b.expect("batch")).collect();
                    let report = scan.report();
                    assert_eq!(concat(&batches, &want), want, "{at}");
                    assert_eq!(report.rows_matched as usize, want[0].len(), "{at}");
                    assert_eq!(report.batches as usize, batches.len(), "{at}");
                    let sizes: Vec<usize> = batches.iter().map(RecordBatch::rows).collect();
                    assert!(sizes.iter().all(|n| (1..=batch_rows).contains(n)), "{at}: {sizes:?}");
                    let want_sizes = expected_sizes(filter.keep, batch_rows);
                    assert_eq!(sizes, want_sizes, "{at}: a batch spans groups");
                }
            }
        }
    }
}
