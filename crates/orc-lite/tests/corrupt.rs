//! Hostile footers that once panicked the reader; each must now be a typed
//! error.

use btrblocks::{Column, ColumnData, Relation};
use orc_lite::{read, write, Error, WriteOptions};

#[test]
fn chunk_offset_near_u64_max_is_an_error() {
    let rel = Relation::new(vec![Column::new("a", ColumnData::Int(vec![1, 2, 3, 4]))]);
    let mut bytes = write(&rel, &WriteOptions::default());
    let n = bytes.len();
    let footer_len = u32::from_le_bytes(bytes[n - 8..n - 4].try_into().unwrap()) as usize;
    // The first chunk entry's offset sits at footer start + 16.
    let entry = n - 8 - footer_len + 16;
    bytes[entry..entry + 8].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
    assert_eq!(read(&bytes), Err(Error::Corrupt("chunk offset out of range")));
}
