//! Randomized oracles for the expression engine.
//!
//! The kernel path under test is the one the scan pipeline runs: compile the
//! expression, evaluate leaf conjuncts in the compressed domain when the
//! scheme allows (decoding only on `NeedsDecode`), run general conjuncts
//! through `eval_predicate`, and intersect selections per block. The oracle
//! is a naive row-wise interpreter over the *original* uncompressed data —
//! so a disagreement catches kernel bugs and lossy codecs alike.
//!
//! Randomness comes from btr-corrupt's deterministic xorshift generator (the
//! workspace builds offline; there is no `proptest`). Every case is a pure
//! function of the seed, so failures reproduce exactly. A single
//! `Scratch` is shared across all seeds and never reset: kernels must
//! not depend on clean scratch state.

use btr_corrupt::Xorshift;
use btr_roaring::RoaringBitmap;
use btr_expr::{
    col, eval_predicate, filter_leaf, lit, AggKind, AggState, AggValue, ConjunctKind, Expr,
    ExprPlan, LeafInput, LeafVerdict, Selection, ZoneVerdict,
};
use btrblocks::{
    decompress_block_into, CmpOp, Column, ColumnData, ColumnType, Config, DecodedColumn,
    Literal, Relation, SchemeCode, Scratch, Sidecar, StringArena,
};

/// Decodes one block through the shared (never-reset) scratch.
fn decode(bytes: &[u8], ty: ColumnType, cfg: &Config, scratch: &mut Scratch) -> DecodedColumn {
    let mut out = scratch.lease_decoded(ty);
    decompress_block_into(bytes, ty, cfg, scratch, &mut out).expect("block decodes");
    out
}

const ROWS: usize = 600;
const BLOCK: usize = 128;

fn schema(name: &str) -> Option<(usize, ColumnType)> {
    match name {
        "a" => Some((0, ColumnType::Integer)),
        "b" => Some((1, ColumnType::Double)),
        "s" => Some((2, ColumnType::String)),
        _ => None,
    }
}

/// The original data, kept decoded for the naive reference.
struct Data {
    a: Vec<i32>,
    b: Vec<f64>,
    s: Vec<String>,
}

const TAGS: &[&str] = &["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];

/// Generates column data in shapes that steer scheme selection: constants
/// (OneValue), runs (RLE), small domains (Dict/Frequency), and noise
/// (FastPfor/FastBp128/Pseudodecimal/uncompressed).
fn gen_data(rng: &mut Xorshift) -> Data {
    let int_shape = rng.gen_range(0..4u32);
    let a: Vec<i32> = match int_shape {
        0 => vec![rng.gen_range(-20..=20); ROWS],
        1 => {
            let mut v = rng.gen_range(-20..=20);
            (0..ROWS)
                .map(|_| {
                    if rng.gen_bool(0.15) {
                        v = rng.gen_range(-20..=20);
                    }
                    v
                })
                .collect()
        }
        2 => (0..ROWS).map(|_| rng.gen_range(-4..=4)).collect(),
        _ => (0..ROWS).map(|_| rng.gen_range(-20_000..=20_000)).collect(),
    };
    let dbl_shape = rng.gen_range(0..4u32);
    let nan_p = if rng.gen_bool(0.3) { 0.05 } else { 0.0 };
    let b: Vec<f64> = match dbl_shape {
        0 => vec![f64::from(rng.gen_range(-10..=10)) * 0.5; ROWS],
        1 => {
            let mut v = f64::from(rng.gen_range(-10..=10)) * 0.5;
            (0..ROWS)
                .map(|_| {
                    if rng.gen_bool(0.15) {
                        v = f64::from(rng.gen_range(-10..=10)) * 0.5;
                    }
                    v
                })
                .collect()
        }
        2 => (0..ROWS)
            .map(|_| f64::from(rng.gen_range(-10..=10)) * 0.5)
            .collect(),
        _ => (0..ROWS)
            .map(|_| f64::from(rng.gen_range(-400..=400)) * 0.25)
            .collect(),
    }
    .into_iter()
    .map(|v| if rng.gen_bool(nan_p) { f64::NAN } else { v })
    .collect();
    let str_shape = rng.gen_range(0..3u32);
    let s: Vec<String> = match str_shape {
        0 => vec![TAGS[rng.gen_range(0..TAGS.len())].to_string(); ROWS],
        1 => {
            let mut v = rng.gen_range(0..TAGS.len());
            (0..ROWS)
                .map(|_| {
                    if rng.gen_bool(0.2) {
                        v = rng.gen_range(0..TAGS.len());
                    }
                    TAGS[v].to_string()
                })
                .collect()
        }
        _ => (0..ROWS)
            .map(|_| TAGS[rng.gen_range(0..TAGS.len())].to_string())
            .collect(),
    };
    Data { a, b, s }
}

fn relation(data: &Data) -> Relation {
    let refs: Vec<&str> = data.s.iter().map(|s| s.as_str()).collect();
    Relation::new(vec![
        Column::new("a", ColumnData::Int(data.a.clone())),
        Column::new("b", ColumnData::Double(data.b.clone())),
        Column::new("s", ColumnData::Str(StringArena::from_strs(&refs))),
    ])
}

/// A scheme pool per seed: the oracle must hold whatever the selector was
/// allowed to pick.
fn pool_for(seed: u64) -> Config {
    let base = Config {
        block_size: BLOCK,
        ..Config::default()
    };
    match seed % 5 {
        0 => base,
        1 => base.with_pool(&[SchemeCode::OneValue, SchemeCode::Rle]),
        2 => base.with_pool(&[
            SchemeCode::Dict,
            SchemeCode::Frequency,
            SchemeCode::DictFsst,
        ]),
        3 => base.with_pool(&[
            SchemeCode::FastPfor,
            SchemeCode::FastBp128,
            SchemeCode::Pseudodecimal,
            SchemeCode::Fsst,
        ]),
        _ => base.with_pool(&[]),
    }
}

// ---------------------------------------------------------------------------
// Random expression trees (well-typed by construction, depth <= 4).
// ---------------------------------------------------------------------------

fn gen_expr(rng: &mut Xorshift) -> Expr {
    gen_bool_expr(rng, 4)
}

fn gen_bool_expr(rng: &mut Xorshift, depth: u32) -> Expr {
    if depth == 0 || rng.gen_bool(0.45) {
        return gen_cmp(rng, depth);
    }
    match rng.gen_range(0..3u32) {
        0 => gen_bool_expr(rng, depth - 1).and(gen_bool_expr(rng, depth - 1)),
        1 => gen_bool_expr(rng, depth - 1).or(gen_bool_expr(rng, depth - 1)),
        _ => gen_bool_expr(rng, depth - 1).not(),
    }
}

fn gen_cmp(rng: &mut Xorshift, depth: u32) -> Expr {
    let op = match rng.gen_range(0..5u32) {
        0 => CmpOp::Eq,
        1 => CmpOp::Lt,
        2 => CmpOp::Le,
        3 => CmpOp::Gt,
        _ => CmpOp::Ge,
    };
    let (lhs, rhs) = match rng.gen_range(0..3u32) {
        0 => (gen_int_expr(rng, depth), gen_int_expr(rng, depth)),
        1 => (gen_dbl_expr(rng, depth), gen_dbl_expr(rng, depth)),
        _ => {
            // Strings: columns and literals only (no string operators).
            let side = |rng: &mut Xorshift| {
                if rng.gen_bool(0.6) {
                    col("s")
                } else {
                    lit(TAGS[rng.gen_range(0..TAGS.len())])
                }
            };
            (side(rng), side(rng))
        }
    };
    Expr::Cmp(op, Box::new(lhs), Box::new(rhs))
}

fn gen_int_expr(rng: &mut Xorshift, depth: u32) -> Expr {
    if depth == 0 || rng.gen_bool(0.6) {
        if rng.gen_bool(0.6) {
            col("a")
        } else {
            lit(rng.gen_range(-25..=25))
        }
    } else {
        let (a, b) = (gen_int_expr(rng, depth - 1), gen_int_expr(rng, depth - 1));
        match rng.gen_range(0..3u32) {
            0 => a.add(b),
            1 => a.sub(b),
            _ => a.mul(b),
        }
    }
}

fn gen_dbl_expr(rng: &mut Xorshift, depth: u32) -> Expr {
    if depth == 0 || rng.gen_bool(0.6) {
        if rng.gen_bool(0.6) {
            col("b")
        } else if rng.gen_bool(0.05) {
            lit(f64::NAN)
        } else {
            lit(f64::from(rng.gen_range(-12..=12)) * 0.5)
        }
    } else {
        let (a, b) = (gen_dbl_expr(rng, depth - 1), gen_dbl_expr(rng, depth - 1));
        match rng.gen_range(0..3u32) {
            0 => a.add(b),
            1 => a.sub(b),
            _ => a.mul(b),
        }
    }
}

// ---------------------------------------------------------------------------
// Naive row-wise reference interpreter over the original data.
// ---------------------------------------------------------------------------

enum V {
    I(i32),
    D(f64),
    B(bool),
    S(Vec<u8>),
}

fn eval_row(e: &Expr, row: usize, d: &Data) -> V {
    match e {
        Expr::Col(name) => match name.as_str() {
            "a" => V::I(d.a[row]),
            "b" => V::D(d.b[row]),
            "s" => V::S(d.s[row].clone().into_bytes()),
            other => panic!("unknown column {other}"),
        },
        Expr::Lit(Literal::Int(v)) => V::I(*v),
        Expr::Lit(Literal::Double(v)) => V::D(*v),
        Expr::Lit(Literal::Str(v)) => V::S(v.clone()),
        Expr::Cmp(op, a, b) => {
            let (x, y) = (eval_row(a, row, d), eval_row(b, row, d));
            V::B(match (x, y) {
                (V::I(x), V::I(y)) => op.matches(&x, &y),
                (V::D(x), V::D(y)) => op.matches(&x, &y),
                (V::S(x), V::S(y)) => op.matches(&x.as_slice(), &y.as_slice()),
                _ => panic!("ill-typed comparison in generated expression"),
            })
        }
        Expr::And(a, b) => V::B(truth(a, row, d) && truth(b, row, d)),
        Expr::Or(a, b) => V::B(truth(a, row, d) || truth(b, row, d)),
        Expr::Not(a) => V::B(!truth(a, row, d)),
        Expr::Add(a, b) => arith(a, b, row, d, i32::wrapping_add, |x, y| x + y),
        Expr::Sub(a, b) => arith(a, b, row, d, i32::wrapping_sub, |x, y| x - y),
        Expr::Mul(a, b) => arith(a, b, row, d, i32::wrapping_mul, |x, y| x * y),
    }
}

fn truth(e: &Expr, row: usize, d: &Data) -> bool {
    match eval_row(e, row, d) {
        V::B(v) => v,
        _ => panic!("non-boolean where boolean expected"),
    }
}

fn arith(
    a: &Expr,
    b: &Expr,
    row: usize,
    d: &Data,
    fi: fn(i32, i32) -> i32,
    fd: fn(f64, f64) -> f64,
) -> V {
    match (eval_row(a, row, d), eval_row(b, row, d)) {
        (V::I(x), V::I(y)) => V::I(fi(x, y)),
        (V::D(x), V::D(y)) => V::D(fd(x, y)),
        _ => panic!("ill-typed arithmetic in generated expression"),
    }
}

// ---------------------------------------------------------------------------
// The kernel path: exactly what the scan pipeline runs per block.
// ---------------------------------------------------------------------------

/// Evaluates the compiled plan block by block — compressed-domain leaves
/// where the scheme allows, decode fallback otherwise, `eval_predicate` for
/// general conjuncts — and returns the surviving global row indices. Along
/// the way it cross-checks every zone verdict against the actual outcome.
fn kernel_eval(
    plan: &ExprPlan,
    compressed: &btrblocks::CompressedRelation,
    sidecar: &Sidecar,
    cfg: &Config,
    scratch: &mut Scratch,
) -> Vec<usize> {
    let types = [ColumnType::Integer, ColumnType::Double, ColumnType::String];
    let names = ["a", "b", "s"];
    let blocks = compressed.columns[0].blocks.len();
    let mut kept = Vec::new();
    for g in 0..blocks {
        let start = g * BLOCK;
        let n = BLOCK.min(ROWS - start) as u32;
        let decoded: Vec<DecodedColumn> = (0..3)
            .map(|c| decode(&compressed.columns[c].blocks[g], types[c], cfg, scratch))
            .collect();
        let mut sel = Selection::all(n);
        for conj in &plan.conjuncts {
            let block_sel = match &conj.kind {
                ConjunctKind::Leaf {
                    column, op, literal, ..
                } => {
                    let bytes = &compressed.columns[*column].blocks[g];
                    let verdict = filter_leaf(
                        LeafInput::Compressed {
                            bytes,
                            ty: types[*column],
                            config: cfg,
                        },
                        *op,
                        literal,
                    )
                    .expect("leaf evaluates");
                    let rows = match verdict {
                        LeafVerdict::Selected { rows, .. } => rows,
                        LeafVerdict::NeedsDecode => {
                            match filter_leaf(LeafInput::Decoded(&decoded[*column]), *op, literal)
                                .expect("decoded leaf evaluates")
                            {
                                LeafVerdict::Selected { rows, .. } => rows,
                                LeafVerdict::NeedsDecode => {
                                    panic!("decoded input always evaluates")
                                }
                            }
                        }
                    };
                    let block_sel = Selection::from_bitmap(n, rows);
                    // Zone oracle: a verdict must never contradict the rows.
                    let meta = sidecar.column(names[*column]).expect("sidecar has column");
                    check_zone(conj.zone_verdict(&meta.zones[g]), &block_sel, g);
                    block_sel
                }
                ConjunctKind::General(bound) => {
                    eval_predicate(bound, &decoded, &sel).expect("general conjunct evaluates")
                }
            };
            sel = sel.intersect(&block_sel);
            if sel.is_empty() {
                break;
            }
        }
        kept.extend(sel.iter().map(|r| start + r as usize));
    }
    kept
}

fn check_zone(verdict: ZoneVerdict, block_sel: &Selection, g: usize) {
    match verdict {
        ZoneVerdict::AlwaysFalse => assert!(
            block_sel.is_empty(),
            "block {g}: zone said AlwaysFalse but {} rows matched",
            block_sel.cardinality()
        ),
        ZoneVerdict::AlwaysTrue => assert_eq!(
            block_sel.cardinality(),
            block_sel.rows(),
            "block {g}: zone said AlwaysTrue but some rows failed"
        ),
        ZoneVerdict::Unknown => {}
    }
}

#[test]
fn expr_eval_matches_decode_then_filter() {
    let mut scratch = Scratch::new();
    let mut total_exprs = 0usize;
    let mut nontrivial = 0usize;
    for seed in 0..24u64 {
        let mut rng = Xorshift::new(seed.wrapping_mul(0x9E37_79B9) + 1);
        let data = gen_data(&mut rng);
        let rel = relation(&data);
        let cfg = pool_for(seed);
        let sidecar = Sidecar::build(&rel, BLOCK);
        let compressed = btrblocks::compress(&rel, &cfg).expect("compress");

        for _ in 0..8 {
            let expr = gen_expr(&mut rng);
            let plan = ExprPlan::compile(&expr, schema).expect("generated exprs are well-typed");
            let got = kernel_eval(&plan, &compressed, &sidecar, &cfg, &mut scratch);
            let want: Vec<usize> = (0..ROWS).filter(|&i| truth(&expr, i, &data)).collect();
            assert_eq!(
                got, want,
                "seed {seed}: kernel path diverged from naive reference for {expr:?}"
            );
            total_exprs += 1;
            if !want.is_empty() && want.len() != ROWS {
                nontrivial += 1;
            }
        }
    }
    // The generator must produce real work, not just vacuous predicates.
    assert_eq!(total_exprs, 192);
    assert!(
        nontrivial >= total_exprs / 4,
        "only {nontrivial}/{total_exprs} cases were selective"
    );
}

// ---------------------------------------------------------------------------
// Aggregate oracle: every rung of the fold ladder must agree with a naive
// fold over the original rows.
// ---------------------------------------------------------------------------

/// `AggValue` equality with NaN-tolerant doubles (bit comparison), since a
/// NaN-poisoned SUM must still count as agreement when both sides are NaN.
fn agg_eq(a: &AggValue, b: &AggValue) -> bool {
    let bits = |v: &Option<f64>| v.map(f64::to_bits);
    match (a, b) {
        (AggValue::SumDouble(x), AggValue::SumDouble(y)) => x.to_bits() == y.to_bits(),
        (AggValue::MinDouble(x), AggValue::MinDouble(y)) => bits(x) == bits(y),
        (AggValue::MaxDouble(x), AggValue::MaxDouble(y)) => bits(x) == bits(y),
        _ => a == b,
    }
}

fn naive_agg(kind: AggKind, column: usize, data: &Data, rows: &[usize]) -> AggValue {
    match (kind, column) {
        (AggKind::Count, _) => AggValue::Count(rows.len() as u64),
        (AggKind::Sum, 0) => AggValue::SumInt(
            rows.iter()
                .fold(0i64, |acc, &i| acc.wrapping_add(i64::from(data.a[i]))),
        ),
        (AggKind::Sum, 1) => AggValue::SumDouble(rows.iter().fold(0.0, |acc, &i| acc + data.b[i])),
        (AggKind::Min, 0) => AggValue::MinInt(rows.iter().map(|&i| data.a[i]).min()),
        (AggKind::Max, 0) => AggValue::MaxInt(rows.iter().map(|&i| data.a[i]).max()),
        (AggKind::Min, 1) => AggValue::MinDouble(fold_dbl(data, rows, |m, v| v < m)),
        (AggKind::Max, 1) => AggValue::MaxDouble(fold_dbl(data, rows, |m, v| v > m)),
        (AggKind::Min, 2) => AggValue::MinStr(fold_str(data, rows, |m, v| v < m)),
        (AggKind::Max, 2) => AggValue::MaxStr(fold_str(data, rows, |m, v| v > m)),
        other => panic!("invalid aggregate/column combination {other:?}"),
    }
}

/// NaN-ignoring double extremum, matching the pinned MIN/MAX semantics.
fn fold_dbl(data: &Data, rows: &[usize], better: fn(f64, f64) -> bool) -> Option<f64> {
    let mut best: Option<f64> = None;
    for &i in rows {
        let v = data.b[i];
        if v.is_nan() {
            continue;
        }
        best = Some(match best {
            Some(m) if !better(m, v) => m,
            _ => v,
        });
    }
    best
}

fn fold_str(data: &Data, rows: &[usize], better: fn(&[u8], &[u8]) -> bool) -> Option<Vec<u8>> {
    let mut best: Option<&[u8]> = None;
    for &i in rows {
        let v = data.s[i].as_bytes();
        best = Some(match best {
            Some(m) if !better(m, v) => m,
            _ => v,
        });
    }
    best.map(<[u8]>::to_vec)
}

#[test]
fn aggregate_ladder_matches_naive_fold() {
    let mut scratch = Scratch::new();
    let cases: &[(AggKind, usize)] = &[
        (AggKind::Count, 0),
        (AggKind::Sum, 0),
        (AggKind::Sum, 1),
        (AggKind::Min, 0),
        (AggKind::Max, 0),
        (AggKind::Min, 1),
        (AggKind::Max, 1),
        (AggKind::Min, 2),
        (AggKind::Max, 2),
    ];
    let types = [ColumnType::Integer, ColumnType::Double, ColumnType::String];
    let names = ["a", "b", "s"];
    let all_rows: Vec<usize> = (0..ROWS).collect();

    for seed in 100..116u64 {
        let mut rng = Xorshift::new(seed);
        let data = gen_data(&mut rng);
        let rel = relation(&data);
        let cfg = pool_for(seed);
        let sidecar = Sidecar::build(&rel, BLOCK);
        let compressed = btrblocks::compress(&rel, &cfg).expect("compress");
        let blocks = compressed.columns[0].blocks.len();

        for &(kind, column) in cases {
            let meta = sidecar.column(names[column]).expect("sidecar has column");
            let mut state = AggState::new(kind, types[column]).expect("valid aggregate");
            // Walk the ladder per block with a random entry rung: zones
            // first, then the compressed domain, then the decoded fold.
            // Whatever rung answers, the total must match the naive fold.
            for g in 0..blocks {
                let start = g * BLOCK;
                let n = (BLOCK.min(ROWS - start)) as u32;
                let bytes = &compressed.columns[column].blocks[g];
                let rung = rng.gen_range(0..3u32);
                let answered = (rung == 0 && state.fold_zone(&meta.zones[g], n))
                    || (rung <= 1
                        && state
                            .fold_compressed(bytes, types[column], &cfg, &scratch)
                            .expect("compressed fold"));
                if !answered {
                    let decoded = decode(bytes, types[column], &cfg, &mut scratch);
                    state.fold_decoded(&decoded, None).expect("decoded fold");
                }
            }
            let want = naive_agg(kind, column, &data, &all_rows);
            assert!(
                agg_eq(&state.value(), &want),
                "seed {seed} {kind:?} on {}: got {:?}, want {want:?}",
                names[column],
                state.value()
            );

            // Selected-rows fold: a random selection over each block must
            // match the naive fold over the same global rows.
            let mut sel_state = AggState::new(kind, types[column]).expect("valid aggregate");
            let mut sel_rows = Vec::new();
            for g in 0..blocks {
                let start = g * BLOCK;
                let n = (BLOCK.min(ROWS - start)) as u32;
                let picked: Vec<u32> = (0..n).filter(|_| rng.gen_bool(0.4)).collect();
                sel_rows.extend(picked.iter().map(|&r| start + r as usize));
                let sel = Selection::from_bitmap(n, RoaringBitmap::from_sorted_iter(picked));
                // A COUNT may be answered from the selection alone.
                if rng.gen_bool(0.5) && sel_state.fold_count(u64::from(sel.cardinality())) {
                    continue;
                }
                let decoded = decode(
                    &compressed.columns[column].blocks[g],
                    types[column],
                    &cfg,
                    &mut scratch,
                );
                sel_state
                    .fold_decoded(&decoded, Some(&sel))
                    .expect("selected fold");
            }
            let want = naive_agg(kind, column, &data, &sel_rows);
            assert!(
                agg_eq(&sel_state.value(), &want),
                "seed {seed} {kind:?} on {} (selected): got {:?}, want {want:?}",
                names[column],
                sel_state.value()
            );
        }
    }
}
