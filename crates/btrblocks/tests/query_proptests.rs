//! Randomized tests for predicate pushdown and the zone-map sidecar: the
//! compressed evaluation must agree with decompress-then-filter for every
//! scheme, every operator, and arbitrary data, and the sidecar must
//! round-trip (that pruning never drops a match is an engine property,
//! `btr-scan/tests/pruning.rs`). Deterministic (seeded xorshift) so runs
//! reproduce offline.

use btr_corrupt::rng::Xorshift;
use btrblocks::block::{compress_block_with, BlockRef};
use btrblocks::metadata::Sidecar;
use btrblocks::{filter_block, CmpOp, Literal};
use btrblocks::{Column, ColumnData, Config, Relation, SchemeCode, StringArena};

const OPS: [CmpOp; 5] = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
const CASES: usize = 48;

fn cmp<T: PartialOrd>(op: CmpOp, v: &T, l: &T) -> bool {
    match op {
        CmpOp::Eq => v == l,
        CmpOp::Lt => v < l,
        CmpOp::Le => v <= l,
        CmpOp::Gt => v > l,
        CmpOp::Ge => v >= l,
    }
}

/// Three shapes: tiny-range, arbitrary, and run-heavy integers.
fn arb_ints(rng: &mut Xorshift) -> Vec<i32> {
    match rng.gen_range(0..3u32) {
        0 => {
            let len = rng.gen_range(0..800usize);
            (0..len).map(|_| rng.gen_range(-20i32..20)).collect()
        }
        1 => {
            let len = rng.gen_range(0..400usize);
            (0..len).map(|_| rng.next_u32() as i32).collect()
        }
        _ => {
            let runs = rng.gen_range(0..40usize);
            let mut out = Vec::new();
            for _ in 0..runs {
                let v = rng.gen_range(-5i32..5);
                let n = rng.gen_range(1..50usize);
                out.extend(std::iter::repeat_n(v, n));
            }
            out
        }
    }
}

fn word(rng: &mut Xorshift) -> String {
    let len = rng.gen_range(0..=4usize);
    (0..len).map(|_| (b'a' + rng.gen_range(0u8..3)) as char).collect()
}

#[test]
fn int_pushdown_matches_reference() {
    let mut rng = Xorshift::new(0x61);
    for case in 0..CASES {
        let values = arb_ints(&mut rng);
        let lit = rng.gen_range(-20i32..20);
        let op = OPS[case % OPS.len()];
        let cfg = Config::default();
        let expected: Vec<u32> = values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| cmp(op, v, &lit).then_some(i as u32))
            .collect();
        for code in [
            SchemeCode::Uncompressed,
            SchemeCode::Rle,
            SchemeCode::Dict,
            SchemeCode::Frequency,
            SchemeCode::FastPfor,
            SchemeCode::FastBp128,
        ] {
            let bytes = compress_block_with(code, BlockRef::Int(&values), &cfg);
            let got =
                filter_block(&bytes, btrblocks::ColumnType::Integer, &[(op, Literal::Int(lit))], &cfg)
                    .unwrap();
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                expected,
                "scheme {code:?} op {op:?}"
            );
        }
    }
}

#[test]
fn double_pushdown_matches_reference() {
    let mut rng = Xorshift::new(0x62);
    for case in 0..CASES {
        let len = rng.gen_range(0..600usize);
        let values: Vec<f64> = (0..len)
            .map(|_| {
                if rng.gen_bool(0.1) {
                    f64::NAN
                } else {
                    f64::from(rng.gen_range(-50i32..50)) * 0.25
                }
            })
            .collect();
        let op = OPS[case % OPS.len()];
        let lit = f64::from(rng.gen_range(-50i32..50)) * 0.25;
        let cfg = Config::default();
        let expected: Vec<u32> = values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| cmp(op, v, &lit).then_some(i as u32))
            .collect();
        for code in [
            SchemeCode::Uncompressed,
            SchemeCode::Rle,
            SchemeCode::Dict,
            SchemeCode::Frequency,
            SchemeCode::Pseudodecimal,
        ] {
            let bytes = compress_block_with(code, BlockRef::Double(&values), &cfg);
            let got = filter_block(
                &bytes,
                btrblocks::ColumnType::Double,
                &[(op, Literal::Double(lit))],
                &cfg,
            )
            .unwrap();
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                expected,
                "scheme {code:?} op {op:?}"
            );
        }
    }
}

#[test]
fn string_pushdown_matches_reference() {
    let mut rng = Xorshift::new(0x63);
    for case in 0..CASES {
        let count = rng.gen_range(0..400usize);
        let words: Vec<String> = (0..count).map(|_| word(&mut rng)).collect();
        let lit = word(&mut rng);
        let op = OPS[case % OPS.len()];
        let cfg = Config::default();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let arena = StringArena::from_strs(&refs);
        let lit_b = lit.as_bytes();
        let expected: Vec<u32> = refs
            .iter()
            .enumerate()
            .filter_map(|(i, s)| cmp(op, &s.as_bytes(), &lit_b).then_some(i as u32))
            .collect();
        for code in [
            SchemeCode::Uncompressed,
            SchemeCode::Dict,
            SchemeCode::DictFsst,
            SchemeCode::Fsst,
        ] {
            let bytes = compress_block_with(code, BlockRef::Str(&arena), &cfg);
            let got = filter_block(
                &bytes,
                btrblocks::ColumnType::String,
                &[(op, Literal::Str(lit_b.to_vec()))],
                &cfg,
            )
            .unwrap();
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                expected,
                "scheme {code:?} op {op:?}"
            );
        }
    }
}

#[test]
fn sidecar_serialization_roundtrips() {
    let mut rng = Xorshift::new(0x65);
    for _ in 0..CASES {
        let n = rng.gen_range(0..500usize);
        let ints: Vec<i32> = (0..n).map(|_| rng.next_u32() as i32).collect();
        let doubles: Vec<f64> = (0..n).map(|_| f64::from_bits(rng.next_u64())).collect();
        let block_size = rng.gen_range(10..200usize);
        let rel = Relation::new(vec![
            Column::new("i", ColumnData::Int(ints)),
            Column::new("d", ColumnData::Double(doubles)),
        ]);
        let sidecar = Sidecar::build(&rel, block_size);
        let back = Sidecar::from_bytes(&sidecar.to_bytes()).unwrap();
        // NaN-bearing zones break Eq; compare through re-serialization.
        assert_eq!(back.to_bytes(), sidecar.to_bytes());
    }
}
