//! BtrBlocks: efficient columnar compression for data lakes.
//!
//! A from-scratch Rust reproduction of the SIGMOD 2023 paper by Kuschewski,
//! Sauerwein, Alhomssi and Leis. BtrBlocks compresses typed columns
//! (32-bit integers, 64-bit floats, variable-length strings) by:
//!
//! 1. splitting each column into fixed-size blocks (default 64 000 values),
//! 2. picking the best encoding per block with a **sampling-based selection
//!    algorithm** — statistics filter out non-viable schemes, then each
//!    viable scheme compresses a small sample (ten 64-value runs from
//!    non-overlapping parts of the block ≈ 1 % of the data) and the best
//!    observed compression ratio wins,
//! 3. **cascading**: scheme outputs (RLE's run-length array, a dictionary's
//!    code sequence, Pseudodecimal's digit/exponent columns, …) are
//!    recursively compressed again, up to a configurable depth (default 3).
//!
//! The scheme pool mirrors the paper's Table 1 / Figure 3: RLE, One Value,
//! Dictionary and Frequency for every type; SIMD-FastPFOR and FastBP128 for
//! integers; FSST and Dict+FSST for strings; the novel **Pseudodecimal
//! Encoding** for doubles; Roaring bitmaps for NULLs and scheme exceptions.
//! Integers and doubles share one implementation of the schemes, statistics,
//! sampling and selection they have in common, generic over the sealed
//! [`scheme::fixed::Value`] trait ([`scheme::fixed`]); [`scheme::int`] and
//! [`scheme::double`] hold only what is each type's own.
//!
//! # Quick start
//!
//! ```
//! use btrblocks::{Column, ColumnData, Config, Relation};
//!
//! let rel = Relation::new(vec![
//!     Column::new("id", ColumnData::Int((0..100_000).collect())),
//!     Column::new("price", ColumnData::Double((0..100_000).map(|i| (i % 1000) as f64 * 0.25).collect())),
//! ]);
//! let compressed = btrblocks::compress(&rel, &Config::default()).unwrap();
//! let restored = btrblocks::decompress(&compressed.to_bytes(), &Config::default()).unwrap();
//! assert_eq!(rel, restored);
//! ```

pub mod block;
pub mod config;
pub mod crc32c;
pub mod fxhash;
pub mod metadata;
pub mod parallel;
pub mod relation;
pub mod sampling;
pub mod scheme;
pub mod scratch;
pub mod simd;
pub mod stats;
pub mod types;
pub mod writer;

pub use block::{
    compress_block, compress_block_into, decompress_block, decompress_block_into, peek_scheme,
    BlockRef,
};
pub use config::{Config, SimdMode};
pub use metadata::{BlockZone, ColumnMeta, Sidecar};
pub use parallel::{compress_parallel, decompress_parallel};
pub use relation::{
    compress, decompress, BlockRange, Column, CompressedColumn, CompressedRelation, Relation,
};
pub use scheme::filter::{filter_block, filter_decoded, has_fast_path};
pub use scheme::SchemeCode;
pub use scratch::{DecodeScratch, EncodeScratch, Scratch, ScratchStats};
pub use types::{
    CmpOp, ColumnData, ColumnType, DecodedColumn, Literal, StringArena, StringViews,
};

/// Errors produced by compression and decompression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Encoded data ended before the promised values were decoded.
    UnexpectedEnd,
    /// An unknown or type-invalid scheme code was encountered.
    InvalidScheme(u8),
    /// Structural corruption in the encoded data.
    Corrupt(&'static str),
    /// A length or count field in the encoded data exceeds what the
    /// surrounding container can possibly hold — rejected before any
    /// allocation is attempted.
    LimitExceeded(&'static str),
    /// Error from a substrate codec (bit-packing, FSST, Roaring), with the
    /// underlying error's own message preserved.
    Substrate {
        codec: &'static str,
        detail: String,
    },
    /// A column part's CRC32C did not match its stored checksum (format v2).
    /// Reported before any scheme decoding is attempted on the part.
    ChecksumMismatch {
        column: u32,
        part: u32,
    },
    /// The whole-file footer CRC32C did not match (format v2).
    FileChecksumMismatch,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnexpectedEnd => write!(f, "compressed data ended unexpectedly"),
            Error::InvalidScheme(c) => write!(f, "invalid scheme code {c}"),
            Error::Corrupt(m) => write!(f, "corrupt compressed data: {m}"),
            Error::LimitExceeded(m) => write!(f, "length field exceeds container: {m}"),
            Error::Substrate { codec, detail } => {
                write!(f, "substrate codec error ({codec}): {detail}")
            }
            Error::ChecksumMismatch { column, part } => {
                write!(f, "checksum mismatch in column {column}, part {part}")
            }
            Error::FileChecksumMismatch => write!(f, "file footer checksum mismatch"),
        }
    }
}

impl std::error::Error for Error {}

impl From<btr_bitpacking::Error> for Error {
    fn from(e: btr_bitpacking::Error) -> Self {
        Error::Substrate { codec: "bitpacking", detail: e.to_string() }
    }
}

impl From<btr_fsst::Error> for Error {
    fn from(e: btr_fsst::Error) -> Self {
        Error::Substrate { codec: "fsst", detail: e.to_string() }
    }
}

impl From<btr_roaring::RoaringError> for Error {
    fn from(e: btr_roaring::RoaringError) -> Self {
        Error::Substrate { codec: "roaring", detail: e.to_string() }
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
