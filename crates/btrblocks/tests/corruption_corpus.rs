//! Regression corpus: hand-crafted corrupt inputs asserting *exact* error
//! variants from the decode path.
//!
//! The mutation campaigns in `btr-corrupt` prove nothing bad happens for
//! thousands of random corruptions; this corpus pins down the specific
//! error each *class* of damage must produce, so a refactor that silently
//! downgrades (say) a checksum mismatch to a generic parse error fails here
//! rather than in a consumer.

use btrblocks::block::{compress_block_with, BlockRef};
use btrblocks::writer::WriteLe;
use btrblocks::{
    compress, decompress, decompress_block_into, filter_block, CmpOp, Column, ColumnData,
    ColumnType, Config, DecodedColumn, Error, Literal, Relation, SchemeCode, Scratch,
};

/// `sample()` under `small_cfg()`, written once by the last commit that had a
/// v1 writer. The v2 file pins the format: drift fails
/// `v2_fixture_pins_the_format` instead of shipping.
const V1_FIXTURE: &[u8] = include_bytes!("fixtures/v1_sample.btr");
const V2_FIXTURE: &[u8] = include_bytes!("fixtures/v2_sample.btr");

fn small_cfg() -> Config {
    Config {
        block_size: 512,
        max_cascade_depth: 3,
        max_block_values: 4_096,
        ..Config::default()
    }
}

/// A run-heavy two-block integer column: enough structure to cascade.
fn sample() -> Relation {
    let mut values = Vec::new();
    for i in 0..1_200i32 {
        values.extend(std::iter::repeat_n(i % 7, 3));
    }
    Relation::new(vec![Column::new("i", ColumnData::Int(values))])
}

/// Byte offset of the first block's payload, derived from the layout:
/// `magic | version | rows | n_cols | name_len u16 | name | tag | null_len
/// u32 | nulls | block_count u32 | byte_len u32 [| crc u32]`.
fn first_payload_offset(name_len: usize, nulls_len: usize, v2: bool) -> usize {
    4 + 4 + 8 + 4 + 2 + name_len + 1 + 4 + nulls_len + 4 + 4 + if v2 { 4 } else { 0 }
}

fn v2_bytes() -> Vec<u8> {
    compress(&sample(), &small_cfg()).unwrap().to_bytes()
}

fn v1_bytes() -> Vec<u8> {
    V1_FIXTURE.to_vec()
}

#[test]
fn v2_fixture_pins_the_format() {
    assert!(v2_bytes() == V2_FIXTURE, "to_bytes() no longer reproduces the committed v2 file");
}

#[test]
fn v1_and_v2_fixtures_decode_to_the_sample() {
    assert_eq!(decompress(V1_FIXTURE, &small_cfg()).unwrap(), sample());
    assert_eq!(decompress(V2_FIXTURE, &small_cfg()).unwrap(), sample());
    // v2 adds one CRC per block and the footer; nothing else differs.
    let blocks = sample().rows().div_ceil(small_cfg().block_size);
    assert_eq!(V1_FIXTURE.len() + 4 * blocks + 4, V2_FIXTURE.len());
}

#[test]
fn truncated_header_is_unexpected_end() {
    let bytes = v2_bytes();
    for cut in [0, 3, 5, 7, 9, 11] {
        assert_eq!(
            decompress(&bytes[..cut], &small_cfg()).unwrap_err(),
            Error::UnexpectedEnd,
            "cut at {cut}"
        );
    }
}

#[test]
fn bad_magic_and_unknown_version_are_corrupt() {
    let mut bytes = v2_bytes();
    bytes[0] = b'X';
    assert_eq!(
        decompress(&bytes, &small_cfg()).unwrap_err(),
        Error::Corrupt("bad magic")
    );
    let mut bytes = v2_bytes();
    bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
    assert_eq!(
        decompress(&bytes, &small_cfg()).unwrap_err(),
        Error::Corrupt("unsupported version")
    );
}

#[test]
fn flipped_payload_bit_is_a_part_checksum_mismatch() {
    let mut bytes = v2_bytes();
    let payload = first_payload_offset(1, 0, true);
    bytes[payload + 3] ^= 0x10;
    assert_eq!(
        decompress(&bytes, &small_cfg()).unwrap_err(),
        Error::ChecksumMismatch { column: 0, part: 0 }
    );
}

#[test]
fn flipped_stored_crc_is_a_part_checksum_mismatch() {
    let mut bytes = v2_bytes();
    // The CRC field sits 4 bytes before the payload.
    let crc_at = first_payload_offset(1, 0, true) - 4;
    bytes[crc_at] ^= 0x01;
    assert_eq!(
        decompress(&bytes, &small_cfg()).unwrap_err(),
        Error::ChecksumMismatch { column: 0, part: 0 }
    );
}

#[test]
fn flipped_footer_is_a_file_checksum_mismatch() {
    let mut bytes = v2_bytes();
    let n = bytes.len();
    bytes[n - 2] ^= 0x40;
    assert_eq!(
        decompress(&bytes, &small_cfg()).unwrap_err(),
        Error::FileChecksumMismatch
    );
}

#[test]
fn trailing_garbage_is_a_file_checksum_mismatch() {
    let mut bytes = v2_bytes();
    bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]);
    assert_eq!(
        decompress(&bytes, &small_cfg()).unwrap_err(),
        Error::FileChecksumMismatch
    );
}

#[test]
fn corrupt_row_count_is_a_file_checksum_mismatch() {
    // The rows field is framing, not part payload: only the footer CRC
    // covers it, and it must — a v1 reader would silently return a relation
    // with the wrong row count here.
    let mut bytes = v2_bytes();
    bytes[8] ^= 0x01;
    assert_eq!(
        decompress(&bytes, &small_cfg()).unwrap_err(),
        Error::FileChecksumMismatch
    );
}

// The v1 cases pin the *structural* errors: with no checksums in the way,
// hostile fields must be caught by the typed limit/bounds checks that also
// serve as the v2 defense-in-depth layer.

#[test]
fn v1_hostile_column_count_is_limit_exceeded() {
    let mut bytes = v1_bytes();
    bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        decompress(&bytes, &small_cfg()).unwrap_err(),
        Error::LimitExceeded("column count")
    );
}

#[test]
fn v1_hostile_block_count_is_limit_exceeded() {
    let mut bytes = v1_bytes();
    // block_count u32 sits 8 bytes before the first payload (count + len).
    let at = first_payload_offset(1, 0, false) - 8;
    bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        decompress(&bytes, &small_cfg()).unwrap_err(),
        Error::LimitExceeded("block count")
    );
}

#[test]
fn v1_oversized_block_length_is_unexpected_end() {
    let mut bytes = v1_bytes();
    let at = first_payload_offset(1, 0, false) - 4;
    bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        decompress(&bytes, &small_cfg()).unwrap_err(),
        Error::UnexpectedEnd
    );
}

#[test]
fn v1_bad_scheme_code_is_invalid_scheme() {
    let mut bytes = v1_bytes();
    let payload = first_payload_offset(1, 0, false);
    bytes[payload] = 0xEE; // scheme byte: no such code
    assert_eq!(
        decompress(&bytes, &small_cfg()).unwrap_err(),
        Error::InvalidScheme(0xEE)
    );
}

#[test]
fn v1_mid_cascade_truncation_errors_cleanly() {
    let bytes = v1_bytes();
    let payload = first_payload_offset(1, 0, false);
    // Cut inside the first block's payload: the cascade decoder must come
    // back with a typed error, never a panic.
    let err = decompress(&bytes[..payload + 16], &small_cfg()).unwrap_err();
    assert!(
        matches!(
            err,
            Error::UnexpectedEnd
                | Error::Corrupt(_)
                | Error::Substrate { .. }
                | Error::LimitExceeded(_)
        ),
        "got {err:?}"
    );
}

// The compressed-domain filter parses the same payloads as the decoder, so
// it must reject exactly what the decoder rejects, with the same error — a
// tampered block must never be *answered*. (`AggState::fold_compressed`'s
// half of this contract is pinned in btr-expr's own tests.)

/// Asserts the block decoder and `filter_block`, with one leaf and with a
/// two-leaf range, all fail with `expected`.
fn assert_same_rejection(block: &[u8], ty: ColumnType, expected: Error) {
    let cfg = Config::default();
    let mut out = DecodedColumn::Int(Vec::new());
    let decoded = decompress_block_into(block, ty, &cfg, &mut Scratch::new(), &mut out);
    assert_eq!(decoded.unwrap_err(), expected, "decoder");
    let lit = match ty {
        ColumnType::Integer => Literal::Int(1),
        ColumnType::Double => Literal::Double(1.0),
        ColumnType::String => Literal::Str(b"1".to_vec()),
    };
    let range = vec![(CmpOp::Ge, lit.clone()), (CmpOp::Le, lit.clone())];
    for leaves in [vec![(CmpOp::Eq, lit)], range] {
        let filtered = filter_block(block, ty, &leaves, &cfg);
        assert_eq!(filtered.unwrap_err(), expected, "filter_block {leaves:?}");
    }
}

/// A hand-written frame: `[code][count][payload…]`.
fn frame(code: SchemeCode, count: u32, payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    out.put_u8(code.as_u8());
    out.put_u32(count);
    payload(&mut out);
    out
}

fn raw_ints(values: &[i32]) -> impl FnOnce(&mut Vec<u8>) + '_ {
    move |out| out.extend(frame(SchemeCode::Uncompressed, values.len() as u32, |o| o.put_i32_slice(values)))
}

fn raw_doubles(values: &[f64]) -> impl FnOnce(&mut Vec<u8>) + '_ {
    move |out| out.extend(frame(SchemeCode::Uncompressed, values.len() as u32, |o| o.put_f64_slice(values)))
}

#[test]
fn stomped_rle_count_is_rejected_by_decode_and_filter() {
    let cfg = Config::default();
    let total = Error::Corrupt("RLE total length mismatch");
    let mut ints = compress_block_with(SchemeCode::Rle, BlockRef::Int(&[1, 1, 2]), &cfg);
    ints[1..5].copy_from_slice(&10u32.to_le_bytes());
    assert_same_rejection(&ints, ColumnType::Integer, total.clone());
    let mut doubles = compress_block_with(SchemeCode::Rle, BlockRef::Double(&[1.0, 1.0, 2.0]), &cfg);
    doubles[1..5].copy_from_slice(&10u32.to_le_bytes());
    assert_same_rejection(&doubles, ColumnType::Double, total);
}

#[test]
fn rle_run_arrays_are_validated_by_decode_and_filter() {
    let rle = |run_count: u32, values: &[i32], lengths: &[i32]| {
        frame(SchemeCode::Rle, 3, |out| {
            out.put_u32(run_count);
            raw_ints(values)(out);
            raw_ints(lengths)(out);
        })
    };
    let mismatch = Error::Corrupt("RLE run array length mismatch");
    // Stored run count disagrees with the arrays; arrays disagree with each
    // other (a `zip` would silently truncate).
    assert_same_rejection(&rle(5, &[1, 2], &[2, 1]), ColumnType::Integer, mismatch.clone());
    assert_same_rejection(&rle(2, &[1, 2], &[3]), ColumnType::Integer, mismatch.clone());
    assert_same_rejection(
        &rle(2, &[1, 2], &[-1, 4]),
        ColumnType::Integer,
        Error::Corrupt("negative RLE run length"),
    );
    let double_rle = frame(SchemeCode::Rle, 3, |out| {
        out.put_u32(2);
        raw_doubles(&[1.0, 2.0])(out);
        raw_ints(&[3])(out);
    });
    assert_same_rejection(&double_rle, ColumnType::Double, mismatch);
}

#[test]
fn absurd_onevalue_count_is_rejected_without_building_a_bitmap() {
    let capped = Error::Corrupt("block claims more values than max_block_values");
    let started = std::time::Instant::now();
    let ints = frame(SchemeCode::OneValue, u32::MAX, |out| out.put_i32(1));
    assert_same_rejection(&ints, ColumnType::Integer, capped.clone());
    let doubles = frame(SchemeCode::OneValue, u32::MAX, |out| out.put_f64(1.0));
    assert_same_rejection(&doubles, ColumnType::Double, capped.clone());
    let strings = frame(SchemeCode::OneValue, u32::MAX, |out| {
        out.put_u32(1);
        out.put_u8(b'1');
    });
    assert_same_rejection(&strings, ColumnType::String, capped);
    // The uncapped parse spent ~10 s materialising 2^32-1 row positions.
    assert!(started.elapsed() < std::time::Duration::from_secs(1));
}

#[test]
fn out_of_range_dict_code_is_rejected_by_decode_and_filter() {
    let range = Error::Corrupt("dict code out of range");
    // One dictionary entry, codes [0, 1]: code 1 has no entry.
    let ints = frame(SchemeCode::Dict, 2, |out| {
        out.put_u32(1);
        out.put_i32(42);
        raw_ints(&[0, 1])(out);
    });
    assert_same_rejection(&ints, ColumnType::Integer, range.clone());
    let doubles = frame(SchemeCode::Dict, 2, |out| {
        out.put_u32(1);
        out.put_f64(42.0);
        raw_ints(&[0, -1])(out);
    });
    assert_same_rejection(&doubles, ColumnType::Double, range);
}

#[test]
fn frequency_exceptions_are_validated_by_decode_and_filter() {
    let cfg = Config::default();
    // Three exceptions at rows 0..3; claim only two rows in the frame so the
    // last exception position falls outside the block.
    let mut block = compress_block_with(SchemeCode::Frequency, BlockRef::Int(&[7, 8, 9, 1, 1, 1, 1]), &cfg);
    block[1..5].copy_from_slice(&2u32.to_le_bytes());
    assert_same_rejection(
        &block,
        ColumnType::Integer,
        Error::Corrupt("frequency exception position out of range"),
    );
}

#[test]
fn trailing_bytes_are_rejected_by_decode_and_filter() {
    let cfg = Config::default();
    let trailing = Error::Corrupt("trailing bytes after block");
    for code in [SchemeCode::OneValue, SchemeCode::FastBp128] {
        let mut block = compress_block_with(code, BlockRef::Int(&[5; 64]), &cfg);
        block.push(0);
        assert_same_rejection(&block, ColumnType::Integer, trailing.clone());
    }
}

#[test]
fn every_error_variant_displays() {
    // Display is part of the contract (callers log these); keep each
    // variant's message stable and non-empty.
    for (err, needle) in [
        (Error::UnexpectedEnd, "unexpectedly"),
        (Error::InvalidScheme(7), "scheme code 7"),
        (Error::Corrupt("x"), "x"),
        (Error::LimitExceeded("block count"), "block count"),
        (
            Error::Substrate { codec: "fsst", detail: "boom".into() },
            "fsst",
        ),
        (Error::ChecksumMismatch { column: 2, part: 9 }, "column 2"),
        (Error::FileChecksumMismatch, "footer"),
    ] {
        assert!(err.to_string().contains(needle), "{err:?}");
    }
}
