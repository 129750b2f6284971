//! Golden numeric fixture: pins every byte the integer and double schemes
//! write.
//!
//! `fixtures/v2_numeric.btr` is `compress(&numeric_sample(), &cfg()).to_bytes()`
//! as written by the commit *before* the fixed-width schemes moved from
//! per-type twins to one generic layer (PR 16); statistics, tie-breaks,
//! sampling and cascade choices all feed those bytes, so any drift in
//! selection or in a scheme's wire format fails here instead of silently
//! changing files. The generator below is the record of what is in the file
//! — do not change it; add a new fixture instead.

use btrblocks::{
    compress, decompress, Column, ColumnData, CompressedRelation, Config, Relation, SchemeCode,
};

const FIXTURE: &[u8] = include_bytes!("fixtures/v2_numeric.btr");

const BLOCK: usize = 1_024;
const ROWS: usize = 3 * BLOCK;

fn cfg() -> Config {
    Config {
        block_size: BLOCK,
        ..Config::default()
    }
}

/// A fixed 64-bit LCG (Knuth's MMIX constants), inlined so no library change
/// can move the fixture's input.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0
    }

    fn next(&mut self, bound: usize) -> usize {
        ((self.next_u64() >> 33) as usize) % bound
    }
}

/// `ROWS` values in runs of 20–79 drawn from `palette`.
fn runs_of<T: Copy>(rng: &mut Lcg, palette: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(ROWS + 80);
    while out.len() < ROWS {
        let v = palette[rng.next(palette.len())];
        let len = 20 + rng.next(60);
        out.extend(std::iter::repeat_n(v, len));
    }
    out.truncate(ROWS);
    out
}

/// Three blocks of eight integer and seven double columns, named after the
/// root scheme each is built to select (asserted below). The cascades under
/// the RLE, Dictionary, Frequency and Pseudodecimal roots re-enter the
/// integer pool for run lengths, codes, exceptions, digits and exponents.
fn numeric_sample() -> Relation {
    let mut rng = Lcg(0x0B7B_10C6);
    let int_palette = [1_000_000_007, -5, 0, 77, i32::MIN, i32::MAX, 123_456, -987_654_321];
    let int_rle = runs_of(&mut rng, &int_palette);
    let int_dict: Vec<i32> = (0..ROWS).map(|_| int_palette[rng.next(8)]).collect();
    let int_frequency: Vec<i32> = (0..ROWS)
        .map(|_| {
            if rng.next(20) == 0 {
                rng.next_u64() as i32
            } else {
                42
            }
        })
        .collect();
    let int_onevalue = vec![i32::MIN; ROWS];
    let int_uncompressed: Vec<i32> = (0..ROWS)
        .map(|i| match i % BLOCK {
            0 => i32::MIN,
            1 => i32::MAX,
            _ => rng.next_u64() as i32,
        })
        .collect();
    let int_bp128: Vec<i32> = (0..ROWS).map(|_| 10_000 + rng.next(1_000) as i32).collect();
    let int_pfor: Vec<i32> = (0..ROWS)
        .map(|_| {
            if rng.next(64) == 0 {
                1_000_000_000 + rng.next(1_000) as i32
            } else {
                rng.next(16) as i32
            }
        })
        .collect();
    let int_nullable: Vec<Option<i32>> = (0..ROWS)
        .map(|i| (i % 7 != 2).then(|| rng.next(300) as i32 - 150))
        .collect();

    let nan_a = f64::from_bits(0x7FF8_0000_0000_0001);
    let nan_b = f64::from_bits(0xFFF8_0000_DEAD_BEEF);
    let subnormal = f64::from_bits(0x0000_0000_0000_0003);
    let dbl_palette = [0.0, -0.0, nan_a, nan_b, subnormal, 83.283_3, -1.5e300, f64::INFINITY];
    let dbl_rle = runs_of(&mut rng, &dbl_palette);
    let dbl_dict: Vec<f64> = (0..ROWS).map(|_| dbl_palette[rng.next(8)]).collect();
    let dbl_frequency: Vec<f64> = (0..ROWS)
        .map(|_| {
            if rng.next(20) == 0 {
                f64::from_bits(rng.next_u64())
            } else {
                -0.0
            }
        })
        .collect();
    let dbl_onevalue = vec![nan_b; ROWS];
    let dbl_uncompressed: Vec<f64> = (0..ROWS)
        .map(|i| match i % BLOCK {
            0 => -0.0,
            1 => nan_a,
            2 => subnormal,
            _ => f64::from_bits(rng.next_u64()),
        })
        .collect();
    let dbl_pseudodecimal: Vec<f64> = (0..ROWS)
        .map(|i| match i % 257 {
            0 => -0.0,
            1 => nan_b,
            _ => rng.next(1_000_000) as f64 * 0.01 + 0.99,
        })
        .collect();
    let dbl_nullable: Vec<Option<f64>> = (0..ROWS)
        .map(|i| (i % 5 != 1).then(|| rng.next(40_000) as f64 * 0.25))
        .collect();

    Relation::new(vec![
        Column::new("int_rle", ColumnData::Int(int_rle)),
        Column::new("int_dict", ColumnData::Int(int_dict)),
        Column::new("int_frequency", ColumnData::Int(int_frequency)),
        Column::new("int_onevalue", ColumnData::Int(int_onevalue)),
        Column::new("int_uncompressed", ColumnData::Int(int_uncompressed)),
        Column::new("int_bp128", ColumnData::Int(int_bp128)),
        Column::new("int_pfor", ColumnData::Int(int_pfor)),
        Column::from_int_options("int_nullable", &int_nullable),
        Column::new("dbl_rle", ColumnData::Double(dbl_rle)),
        Column::new("dbl_dict", ColumnData::Double(dbl_dict)),
        Column::new("dbl_frequency", ColumnData::Double(dbl_frequency)),
        Column::new("dbl_onevalue", ColumnData::Double(dbl_onevalue)),
        Column::new("dbl_uncompressed", ColumnData::Double(dbl_uncompressed)),
        Column::new("dbl_pseudodecimal", ColumnData::Double(dbl_pseudodecimal)),
        Column::from_double_options("dbl_nullable", &dbl_nullable),
    ])
}

#[test]
fn numeric_fixture_is_reproduced_byte_for_byte() {
    let bytes = compress(&numeric_sample(), &cfg()).unwrap().to_bytes();
    assert!(
        bytes == FIXTURE,
        "to_bytes() no longer reproduces the committed numeric file"
    );
}

#[test]
fn numeric_fixture_decodes_to_the_sample() {
    let sample = numeric_sample();
    let decoded = decompress(FIXTURE, &cfg()).unwrap();
    assert_eq!(decoded.columns.len(), sample.columns.len());
    for (got, want) in decoded.columns.iter().zip(&sample.columns) {
        assert_eq!((&got.name, &got.nulls), (&want.name, &want.nulls));
        match (&got.data, &want.data) {
            (ColumnData::Int(g), ColumnData::Int(w)) => assert_eq!(g, w, "{}", want.name),
            // Bit patterns, not `==`: NaN payloads and `-0.0` must survive.
            (ColumnData::Double(g), ColumnData::Double(w)) => assert!(
                g.len() == w.len() && g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{} differs bitwise",
                want.name
            ),
            _ => panic!("{} changed type", want.name),
        }
    }
    for nullable in [&sample.columns[7], &sample.columns[14]] {
        assert!(nullable.null_count() > 0 && nullable.null_count() < ROWS);
    }
}

#[test]
fn numeric_fixture_uses_the_expected_schemes() {
    let parsed = CompressedRelation::from_bytes(FIXTURE).unwrap();
    let expected: [(&str, SchemeCode); 15] = [
        ("int_rle", SchemeCode::Rle),
        ("int_dict", SchemeCode::Dict),
        ("int_frequency", SchemeCode::Frequency),
        ("int_onevalue", SchemeCode::OneValue),
        ("int_uncompressed", SchemeCode::Uncompressed),
        ("int_bp128", SchemeCode::FastBp128),
        ("int_pfor", SchemeCode::FastPfor),
        ("int_nullable", SchemeCode::FastBp128),
        ("dbl_rle", SchemeCode::Rle),
        ("dbl_dict", SchemeCode::Dict),
        ("dbl_frequency", SchemeCode::Frequency),
        ("dbl_onevalue", SchemeCode::OneValue),
        ("dbl_uncompressed", SchemeCode::Uncompressed),
        ("dbl_pseudodecimal", SchemeCode::Pseudodecimal),
        ("dbl_nullable", SchemeCode::Pseudodecimal),
    ];
    assert_eq!(parsed.columns.len(), expected.len());
    for (col, (name, code)) in parsed.columns.iter().zip(expected) {
        assert_eq!(col.name, name);
        assert_eq!(col.schemes, [code; 3], "{name}");
    }
    for nullable in [&parsed.columns[7], &parsed.columns[14]] {
        assert!(!nullable.nulls.is_empty(), "{} carries a NULL bitmap", nullable.name);
    }
}
