//! parquet-lite: a Parquet-like columnar baseline format.
//!
//! The BtrBlocks paper compares against Apache Parquet, optionally wrapped in
//! Snappy or Zstd. This crate re-implements the parts of Parquet that matter
//! for that comparison, from scratch and faithful in spirit:
//!
//! * **Row groups** (default 2^17 rows — the rowgroup size the paper found
//!   fastest for Arrow), each holding one chunk per column.
//! * **Parquet's encoding rules**: every column chunk first tries dictionary
//!   encoding; if the dictionary grows beyond a threshold, the chunk *falls
//!   back to plain* — the simplistic hard-coded behaviour (of the default C++
//!   implementation) that the paper contrasts with BtrBlocks' sampling-based
//!   selection.
//! * **RLE/bit-packed hybrid** ([`hybrid`]) for dictionary indices.
//! * Optional **general-purpose compression** per column chunk
//!   ([`btr_lz::Codec`]): none / snappy-like / heavy ("zstd"), configured at
//!   write time exactly like Parquet's `compression` property.
//! * A **footer** with column/rowgroup metadata at the end of the file, so a
//!   reader that wants one column must first fetch the footer — the access
//!   pattern the paper's §6.7 discusses. The container ([`mod@file`]) is generic
//!   over the magic and the chunk encoding; orc-lite is its second user.
//!
//! The column model (`Relation`, `ColumnData`, `StringArena`) is shared with
//! the `btrblocks` crate so benchmarks compare identical inputs.

pub mod encoding;
pub mod file;
pub mod hybrid;

pub use file::{read, read_column, write, FileMeta, WriteOptions};

use btr_lz::Codec;

/// Errors from reading a file in the baselines' container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Buffer ended unexpectedly.
    UnexpectedEnd,
    /// Structurally invalid file.
    Corrupt(&'static str),
    /// General-purpose codec failure.
    Codec(&'static str),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnexpectedEnd => write!(f, "file ended unexpectedly"),
            Error::Corrupt(m) => write!(f, "corrupt file: {m}"),
            Error::Codec(m) => write!(f, "codec error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// `Reader`'s one error: a read past the end of its buffer.
impl From<btrblocks::Error> for Error {
    fn from(_: btrblocks::Error) -> Self {
        Error::UnexpectedEnd
    }
}

impl From<btr_lz::Error> for Error {
    fn from(_: btr_lz::Error) -> Self {
        Error::Codec("decompression failed")
    }
}

impl From<btr_bitpacking::Error> for Error {
    fn from(_: btr_bitpacking::Error) -> Self {
        Error::Corrupt("bitpacked data invalid")
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// The compression flavours benchmarked in the paper.
pub fn paper_variants() -> Vec<(&'static str, Codec)> {
    vec![
        ("parquet", Codec::None),
        ("parquet+snappy", Codec::SnappyLike),
        ("parquet+zstd", Codec::Heavy),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrblocks::{Column, ColumnData, Relation, StringArena};

    fn sample() -> Relation {
        let strings: Vec<String> = (0..10_000).map(|i| format!("cat-{}", i % 50)).collect();
        let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
        Relation::new(vec![
            Column::new("k", ColumnData::Int((0..10_000).collect())),
            Column::new(
                "p",
                ColumnData::Double((0..10_000).map(|i| (i % 100) as f64 * 0.5).collect()),
            ),
            Column::new("c", ColumnData::Str(StringArena::from_strs(&refs))),
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
            let back = read(&bytes).unwrap();
            assert_eq!(rel, back, "codec {:?}", codec);
        }
    }

    #[test]
    fn compression_ordering_matches_paper() {
        // zstd-like < snappy-like < uncompressed parquet, on compressible data.
        let rel = sample();
        let sizes: Vec<usize> = paper_variants()
            .iter()
            .map(|(_, codec)| {
                write(&rel, &WriteOptions { codec: *codec, ..WriteOptions::default() }).len()
            })
            .collect();
        assert!(sizes[1] < sizes[0], "snappy {} < none {}", sizes[1], sizes[0]);
        assert!(sizes[2] <= sizes[1], "zstd {} <= snappy {}", sizes[2], sizes[1]);
        assert!(sizes[0] < rel.heap_size(), "even plain parquet encodes");
    }
}
