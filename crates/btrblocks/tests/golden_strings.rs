//! Golden string fixture: pins every byte the string schemes write.
//!
//! `fixtures/v2_strings.btr` is `compress(&string_sample(), &cfg()).to_bytes()`
//! as written by the commit *before* the FSST encoder moved from a bucket
//! walk to an index (PR 15); trained symbol tables, greedy parses and
//! cascade choices all feed those bytes, so any drift in FSST training or
//! matching fails here instead of silently changing files. The generator
//! below is the record of what is in the file — do not change it; add a new
//! fixture instead.

use btrblocks::{
    compress, decompress, Column, ColumnData, CompressedRelation, Config, Relation, SchemeCode,
    StringArena,
};

const FIXTURE: &[u8] = include_bytes!("fixtures/v2_strings.btr");

const ROWS: usize = 1_536;

fn cfg() -> Config {
    Config {
        block_size: 512,
        ..Config::default()
    }
}

/// A fixed 64-bit LCG (Knuth's MMIX constants), inlined so no library change
/// can move the fixture's input.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) as usize) % bound
    }
}

fn str_column(name: &str, values: &[String]) -> Column {
    let refs: Vec<&str> = values.iter().map(|s| s.as_str()).collect();
    Column::new(name, ColumnData::Str(StringArena::from_strs(&refs)))
}

/// Three blocks of five string columns (and what each is there to select):
/// unique URLs (FSST), a few hundred street addresses sharing substrings
/// (Dict+FSST), a handful of city names (Dictionary), a constant (OneValue),
/// and NULL-able strings of length 0–9.
fn string_sample() -> Relation {
    let mut rng = Lcg(0x0B7B_10C5);
    let words = [
        "quick", "pending", "deposit", "furious", "ideas", "sleep", "above", "final",
    ];
    let urls: Vec<String> = (0..ROWS)
        .map(|i| {
            let (a, b) = (words[rng.next(8)], words[rng.next(8)]);
            format!(
                "https://www.example.com/{a}/{b}-{}/item?id={i}",
                rng.next(100_000)
            )
        })
        .collect();
    let streets: Vec<String> = (0..ROWS)
        .map(|_| {
            let n = rng.next(160);
            format!(
                "{} {} BOULEVARD BUILDING {n} PHOENIX ARIZONA",
                5_000 + n * 7,
                words[n % 8].to_uppercase()
            )
        })
        .collect();
    let cities = [
        "01 BRONX",
        "04 BRONX",
        "05 QUEENS",
        "12 QUEENS",
        "03 BROOKLYN",
        "",
    ];
    let city: Vec<String> = (0..ROWS).map(|_| cities[rng.next(6)].to_string()).collect();
    let constant: Vec<String> = vec!["SIGMOD".to_string(); ROWS];
    let short: Vec<Option<String>> = (0..ROWS)
        .map(|i| {
            let len = rng.next(10);
            let s: String = (0..len)
                .map(|_| (b'a' + rng.next(6) as u8) as char)
                .collect();
            (i % 11 != 3).then_some(s)
        })
        .collect();
    let short_refs: Vec<Option<&str>> = short.iter().map(|s| s.as_deref()).collect();
    Relation::new(vec![
        str_column("url", &urls),
        str_column("street", &streets),
        str_column("city", &city),
        str_column("constant", &constant),
        Column::from_str_options("short", &short_refs),
    ])
}

#[test]
fn string_fixture_is_reproduced_byte_for_byte() {
    let bytes = compress(&string_sample(), &cfg()).unwrap().to_bytes();
    assert!(
        bytes == FIXTURE,
        "to_bytes() no longer reproduces the committed string file"
    );
}

#[test]
fn string_fixture_decodes_to_the_sample() {
    let sample = string_sample();
    assert_eq!(decompress(FIXTURE, &cfg()).unwrap(), sample);
    let short = &sample.columns[4];
    assert!(short.null_count() > 0 && short.null_count() < ROWS);
    let ColumnData::Str(arena) = &short.data else {
        panic!("short is a string column");
    };
    for len in 0..=9 {
        assert!(
            arena.iter().any(|s| s.len() == len),
            "no string of length {len}"
        );
    }
}

#[test]
fn string_fixture_uses_the_expected_schemes() {
    let parsed = CompressedRelation::from_bytes(FIXTURE).unwrap();
    let schemes: Vec<&[SchemeCode]> = parsed
        .columns
        .iter()
        .map(|c| c.schemes.as_slice())
        .collect();
    assert_eq!(schemes[0], [SchemeCode::Fsst; 3]);
    assert_eq!(schemes[1], [SchemeCode::DictFsst; 3]);
    assert_eq!(schemes[2], [SchemeCode::Dict; 3]);
    assert_eq!(schemes[3], [SchemeCode::OneValue; 3]);
    // Strings of 0–9 bytes: FSST's shorter-than-one-load tail path.
    assert_eq!(schemes[4], [SchemeCode::Fsst; 3]);
    assert!(
        !parsed.columns[4].nulls.is_empty(),
        "short carries a NULL bitmap"
    );
}
