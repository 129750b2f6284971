//! Guards on the two baseline readers' observable behaviour: the bytes
//! parquet-lite writes, and the error each reader returns for each class of
//! footer damage.

use btrblocks_repro::btrblocks::crc32c::crc32c;
use btrblocks_repro::btrblocks::{Column, ColumnData, Relation, StringArena};
use btrblocks_repro::lz::Codec;
use btrblocks_repro::{orc_lite, parquet_lite};
use std::fmt::Debug;

/// Ints (runs and extremes), doubles with NaN and `-0.0`, a low-cardinality
/// string column, an all-unique string column and a column of empty strings.
fn fixture_relation(rows: usize) -> Relation {
    let ints = (0..rows)
        .map(|i| match i % 3 {
            0 => (i as i32).wrapping_mul(7919) % 100_003,
            1 => [i32::MIN, i32::MAX, -1][i % 9 / 3],
            _ => (i % 7) as i32,
        })
        .collect();
    let doubles = (0..rows)
        .map(|i| match i % 11 {
            0 => f64::NAN,
            5 => -0.0,
            _ => (i % 10) as f64 * 0.5,
        })
        .collect();
    let low: Vec<String> = (0..rows).map(|i| format!("city-{}", i % 17)).collect();
    let unique: Vec<String> = (0..rows).map(|i| format!("row-{i:05}-{}", i * 31)).collect();
    Relation::new(vec![
        Column::new("i", ColumnData::Int(ints)),
        Column::new("d", ColumnData::Double(doubles)),
        Column::new("low", ColumnData::Str(StringArena::from_strs(&low))),
        Column::new("unique", ColumnData::Str(StringArena::from_strs(&unique))),
        Column::new("empty", ColumnData::Str(StringArena::from_strs(&vec![""; rows]))),
    ])
}

/// `(rows, rowgroup_size or the default, codec, len, crc32c)` of
/// `parquet_lite::write(fixture_relation(rows), ..)`.
const PARQUET_BYTES: [(usize, Option<usize>, Codec, usize, u32); 9] = [
    (1_000, Some(300), Codec::None, 23_834, 0x7eff_e2ce),
    (1_000, Some(300), Codec::SnappyLike, 14_879, 0x7d4e_9337),
    (1_000, Some(300), Codec::Heavy, 11_075, 0x11b5_a0cb),
    (1_000, None, Codec::None, 22_724, 0xe716_231a),
    (1_000, None, Codec::SnappyLike, 13_620, 0x6487_0e32),
    (1_000, None, Codec::Heavy, 9_099, 0xa7bc_4a92),
    (0, Some(300), Codec::None, 186, 0xa099_7d73),
    (0, None, Codec::SnappyLike, 186, 0x60a3_a9cc),
    (0, None, Codec::Heavy, 226, 0x2a5f_28ab),
];

#[test]
fn parquet_bytes_are_pinned() {
    for (rows, rowgroup, codec, len, crc) in PARQUET_BYTES {
        let rel = fixture_relation(rows);
        let mut opts = parquet_lite::WriteOptions { codec, ..Default::default() };
        if let Some(rowgroup_size) = rowgroup {
            opts.rowgroup_size = rowgroup_size;
        }
        let bytes = parquet_lite::write(&rel, &opts);
        let what = format!("rows {rows} rowgroup {rowgroup:?} {codec:?}");
        assert_eq!((bytes.len(), crc32c(&bytes)), (len, crc), "{what}");
        // Debug text compares NaN and -0.0 by what they print.
        let back = parquet_lite::read(&bytes).unwrap();
        assert_eq!(format!("{back:?}"), format!("{rel:?}"), "{what}");
    }
}

/// One string column `s`, two groups of four rows, no codec: small enough
/// that every footer prefix fails on a field read, never on a count check.
fn corpus_relation() -> Relation {
    let strs = ["a", "b", "a", "a", "b", "b", "a", "b"];
    Relation::new(vec![Column::new("s", ColumnData::Str(StringArena::from_strs(&strs)))])
}

/// Every damaged copy of `file` in the corpus, each with its case name.
fn corpus(file: &[u8]) -> Vec<(String, Vec<u8>)> {
    let len = file.len();
    let footer_len = u32::from_le_bytes(file[len - 8..len - 4].try_into().unwrap()) as usize;
    let footer_start = len - 8 - footer_len;
    let patch = |name: &str, at: usize, bytes: &[u8]| {
        let mut b = file.to_vec();
        b[at..at + bytes.len()].copy_from_slice(bytes);
        (name.to_string(), b)
    };
    let max = u32::MAX.to_le_bytes();
    // Footer fields: column count @0, name_len @4, "s" @6, type tag @7,
    // group count @8, ..., codec tag last.
    let mut cases = vec![
        patch("head magic", 0, b"X"),
        patch("tail magic", len - 1, b"X"),
        ("shorter than magic and trailer".to_string(), file[..11].to_vec()),
        patch("footer_len u32::MAX", len - 8, &max),
        patch("footer_len past the head magic", len - 8, &(len as u32 - 11).to_le_bytes()),
        patch("column count past the footer", footer_start, &max),
        patch("group count past the footer", footer_start + 8, &max),
        patch("bad type tag", footer_start + 7, &[7]),
        patch("unknown codec tag", len - 9, &[9]),
        patch("chunk fails to decode", 4, &[9]),
    ];
    for cut in 0..footer_len {
        let mut b = file[..footer_start + cut].to_vec();
        b.extend_from_slice(&(cut as u32).to_le_bytes());
        b.extend_from_slice(&file[len - 4..]);
        cases.push((format!("footer truncated to {cut} bytes"), b));
    }
    cases
}

/// parquet-lite's error for a corpus case.
fn expected(case: &str) -> &'static str {
    match case {
        "head magic" | "tail magic" | "shorter than magic and trailer" => "Corrupt(\"bad magic\")",
        "footer_len u32::MAX" | "footer_len past the head magic" => {
            "Corrupt(\"footer length out of range\")"
        }
        "column count past the footer" => "Corrupt(\"column count exceeds footer\")",
        "group count past the footer" => "Corrupt(\"rowgroup count exceeds footer\")",
        "bad type tag" => "Corrupt(\"bad type tag\")",
        "unknown codec tag" => "Corrupt(\"unknown codec tag\")",
        "chunk fails to decode" => "Corrupt(\"unknown chunk encoding\")",
        _ => "UnexpectedEnd",
    }
}

/// Reads every corpus case; `exact` pins the message too, else only the
/// variant (the Debug text before the payload).
fn check_corpus<E: Debug>(file: &[u8], read: impl Fn(&[u8]) -> Result<Relation, E>, exact: bool) {
    let variant = |s: &str| s.split('(').next().unwrap_or_default().to_string();
    let cases = corpus(file);
    assert!(cases.len() > 40, "{} cases", cases.len());
    for (case, bytes) in cases {
        let got = match read(&bytes) {
            Ok(_) => "Ok".to_string(),
            Err(e) => format!("{e:?}"),
        };
        let want = expected(&case);
        if exact {
            assert_eq!(got, want, "{case}");
        } else {
            assert_eq!(variant(&got), variant(want), "{case}: {got}");
        }
    }
}

#[test]
fn parquet_errors_are_pinned() {
    let opts = parquet_lite::WriteOptions { rowgroup_size: 4, codec: Codec::None };
    let file = parquet_lite::write(&corpus_relation(), &opts);
    assert_eq!(parquet_lite::read(&file).unwrap(), corpus_relation());
    check_corpus(&file, parquet_lite::read, true);
}

/// Variants only: orc-lite's variants match parquet-lite's case for case,
/// its messages need not.
#[test]
fn orc_errors_are_pinned() {
    let opts = orc_lite::WriteOptions { stripe_rows: 4, codec: Codec::None, ..Default::default() };
    let file = orc_lite::write(&corpus_relation(), &opts);
    assert_eq!(orc_lite::read(&file).unwrap(), corpus_relation());
    check_corpus(&file, orc_lite::read, false);
}
