//! orc-lite: an ORC-like columnar baseline format.
//!
//! Figure 8 of the BtrBlocks paper compares against Apache ORC (plain,
//! +Snappy, +Zstd). This crate re-implements ORC's distinguishing pieces:
//!
//! * **Stripes** (row-based here; ORC's are size-based) holding one stream
//!   per column.
//! * An **RLEv2-style integer encoding** ([`rle2`]) with short-repeat,
//!   direct (bit-packed), fixed-delta and patched-base sub-encodings —
//!   byte-level headers and varints, which is precisely why ORC decodes
//!   slower than Parquet's word-aligned hybrid (the 4x gap the paper
//!   measures).
//! * **String dictionaries gated by `dictionary_key_size_threshold`**: a
//!   dictionary is kept only if `distinct/total <= threshold` (the paper
//!   sets 0.8, Apache Hive's default, instead of pyarrow's 0).
//! * Optional general-purpose compression per stream ([`btr_lz::Codec`]).
//!
//! Omitted relative to real ORC (documented substitution): ORC's protobuf
//! metadata and per-stream index data. Files use parquet-lite's container
//! ([`parquet_lite::file`]) instead, a fixed-layout footer at the end, with
//! stripes as its groups; [`Error`] and [`Result`] are parquet-lite's.

pub mod file;
pub mod rle2;

pub use file::{read, read_column, write, WriteOptions};
pub use parquet_lite::{Error, Result};

/// The ORC flavours benchmarked in the paper's Figure 8.
pub fn paper_variants() -> Vec<(&'static str, btr_lz::Codec)> {
    vec![
        ("orc", btr_lz::Codec::None),
        ("orc+snappy", btr_lz::Codec::SnappyLike),
        ("orc+zstd", btr_lz::Codec::Heavy),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrblocks::{Column, ColumnData, Relation, StringArena};

    fn sample() -> Relation {
        let strings: Vec<String> = (0..8_000).map(|i| format!("team-{}", i % 30)).collect();
        let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
        Relation::new(vec![
            Column::new("k", ColumnData::Int((0..8_000).collect())),
            Column::new(
                "v",
                ColumnData::Double((0..8_000).map(|i| (i % 40) as f64 * 1.5).collect()),
            ),
            Column::new("s", ColumnData::Str(StringArena::from_strs(&refs))),
        ])
    }

    #[test]
    fn roundtrip_all_codecs() {
        let rel = sample();
        for (_, codec) in paper_variants() {
            let opts = WriteOptions {
                codec,
                ..WriteOptions::default()
            };
            let bytes = write(&rel, &opts);
            assert_eq!(read(&bytes).unwrap(), rel, "codec {codec:?}");
        }
    }

    #[test]
    fn compresses_structured_data() {
        let rel = sample();
        let bytes = write(&rel, &WriteOptions::default());
        assert!(bytes.len() < rel.heap_size(), "{} vs {}", bytes.len(), rel.heap_size());
    }
}
