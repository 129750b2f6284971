//! Zone-map pruning never loses a match: over random values, block sizes,
//! operators and literals, a filtered engine scan returns exactly the rows
//! a naive row-by-row filter keeps, and decodes no more blocks than the
//! relation holds. Deterministic (seeded xorshift) so runs reproduce.

use btr_corrupt::rng::Xorshift;
use btr_scan::{col, lit, EngineOptions, MemorySource, ScanEngine, ScanSpec};
use btrblocks::{CmpOp, Column, ColumnData, Config, Relation, Sidecar};
use std::sync::Arc;

const OPS: [CmpOp; 5] = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
const CASES: usize = 48;

#[test]
fn pruned_scan_never_loses_matches() {
    let mut rng = Xorshift::new(0x64);
    let mut pruned = 0;
    for case in 0..CASES {
        let len = rng.gen_range(1..2000usize);
        let mut values: Vec<i32> = (0..len).map(|_| rng.gen_range(-1000i32..1000)).collect();
        // Sorted values give disjoint zones, so pruning has blocks to skip.
        if case % 2 == 1 {
            values.sort_unstable();
        }
        let literal = rng.gen_range(-1000i32..1000);
        let op = OPS[case % OPS.len()];
        let block_size = rng.gen_range(50..500usize);
        let config = Config {
            block_size,
            ..Config::default()
        };
        let rel = Relation::new(vec![
            Column::new("x", ColumnData::Int(values.clone())),
            Column::new("row", ColumnData::Int((0..len as i32).collect())),
        ]);
        let sidecar = Sidecar::build(&rel, block_size);
        let compressed = Arc::new(btrblocks::compress(&rel, &config).expect("compress"));
        let engine = ScanEngine::new(EngineOptions {
            workers: 2,
            config,
            ..EngineOptions::default()
        });
        let x = col("x");
        let predicate = match op {
            CmpOp::Eq => x.eq(lit(literal)),
            CmpOp::Lt => x.lt(lit(literal)),
            CmpOp::Le => x.le(lit(literal)),
            CmpOp::Gt => x.gt(lit(literal)),
            CmpOp::Ge => x.ge(lit(literal)),
        };
        let spec = ScanSpec::project(["row"]).with_expr(predicate);
        let source = Arc::new(MemorySource::new("rel", compressed));
        let mut scan = engine.scan(source, &sidecar, &spec).expect("plan");
        let mut rows = Vec::new();
        for batch in scan.by_ref() {
            match batch.expect("batch").column("row") {
                Some(ColumnData::Int(v)) => rows.extend_from_slice(v),
                other => panic!("row column came back as {other:?}"),
            }
        }
        let report = scan.report();

        let expected: Vec<i32> = (0..len)
            .filter(|&i| op.matches(&values[i], &literal))
            .map(|i| i as i32)
            .collect();
        let what = format!("case {case}: x {op:?} {literal}, block size {block_size}");
        assert_eq!(rows, expected, "{what}");
        // Two columns per row group: `x` for the filter, `row` projected.
        assert!(report.blocks_decoded <= 2 * report.blocks_total, "{what}: {report:?}");
        pruned += report.blocks_pruned;
    }
    assert!(pruned > 0, "no case pruned a block");
}
