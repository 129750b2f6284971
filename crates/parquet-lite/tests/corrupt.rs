//! Hostile footers and chunks that once panicked the reader or were read
//! without complaint; each must now be a typed error.

use btrblocks::{Column, ColumnData, ColumnType, Relation};
use parquet_lite::{encoding, read, write, Error, WriteOptions};

/// A one-column (`a`), four-row Int file and the position of its first
/// chunk entry (footer start + 16): offset u64, length u32, raw length u32.
fn four_ints() -> (Vec<u8>, usize) {
    let rel = Relation::new(vec![Column::new("a", ColumnData::Int(vec![1, 2, 3, 4]))]);
    let bytes = write(&rel, &WriteOptions::default());
    let n = bytes.len();
    let footer_len = u32::from_le_bytes(bytes[n - 8..n - 4].try_into().unwrap()) as usize;
    (bytes, n - 8 - footer_len + 16)
}

#[test]
fn chunk_offset_near_u64_max_is_an_error() {
    let (mut bytes, entry) = four_ints();
    bytes[entry..entry + 8].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
    assert_eq!(read(&bytes), Err(Error::Corrupt("chunk offset out of range")));
}

#[test]
fn stomped_raw_len_is_an_error() {
    let (mut bytes, entry) = four_ints();
    bytes[entry + 12] ^= 1;
    assert_eq!(read(&bytes), Err(Error::Corrupt("chunk length mismatch")));
}

#[test]
fn dict_code_into_an_empty_dictionary_is_an_error() {
    // DICT, dict_len 0, width 0, index_len 2, one RLE run of four 0 codes.
    let chunk = [1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0x08, 0x00];
    let want = Err(Error::Corrupt("dict index out of range"));
    for ty in [ColumnType::Integer, ColumnType::Double, ColumnType::String] {
        assert_eq!(encoding::decode_chunk(&chunk, 4, ty), want, "{ty:?}");
    }
    // The same chunk as the only chunk of a one-column, four-row file.
    let mut file = b"PQL1".to_vec();
    file.extend_from_slice(&chunk);
    let mut footer = vec![1, 0, 0, 0, 1, 0, b'a', 0, 1, 0, 0, 0, 4, 0, 0, 0];
    footer.extend_from_slice(&4u64.to_le_bytes());
    footer.extend_from_slice(&[12, 0, 0, 0, 12, 0, 0, 0, 0]);
    file.extend_from_slice(&footer);
    file.extend_from_slice(&(footer.len() as u32).to_le_bytes());
    file.extend_from_slice(b"PQL1");
    assert_eq!(file.len(), 57);
    assert_eq!(read(&file).map(|_| ()), want.map(|_: ColumnData| ()));
}
