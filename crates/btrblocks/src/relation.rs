//! Relation-level types and the file format. The loop that splits a
//! relation into blocks and back is [`crate::parallel`]; [`compress`] and
//! [`decompress`] are that loop at one worker.
//!
//! Following the paper's design position (§2.1), the format is deliberately
//! minimal: it is *only* compressed blocks plus the little framing needed to
//! find them. Statistics, zone maps and indexes are orthogonal concerns that
//! belong outside the data file.
//!
//! # Format v2 (current) — checksummed
//!
//! Data-lake files live on object stores and cross many networks and disks;
//! v2 adds end-to-end corruption detection so a flipped bit is reported as a
//! checksum error *before* any scheme decoder runs on the damaged bytes.
//!
//! File layout (little-endian):
//! ```text
//! magic "BTRB" | version: u32 = 2 | row_count: u64 | column_count: u32
//! per column:
//!   name_len: u16 | name bytes | type tag: u8
//!   null_len: u32 | roaring NULL bitmap (0 length = no NULLs)
//!   block_count: u32
//!   per block: byte_len: u32 | crc32c: u32 | block bytes
//! footer: crc32c: u32   (CRC32C of every byte before the footer)
//! ```
//!
//! Two checksum layers, both CRC32C ([`crate::crc32c`]):
//!
//! - **per column part**: each block carries the CRC of its payload. On
//!   read it is verified before the block's scheme byte is even inspected;
//!   a mismatch is reported as [`Error::ChecksumMismatch`] with the column
//!   and part index, which lets a reader re-fetch just that part.
//! - **whole file**: the footer CRC covers the complete file body. It
//!   catches corruption in the framing itself (names, counts, lengths, the
//!   NULL bitmaps) and any trailing garbage; a mismatch that cannot be
//!   localized to a part is [`Error::FileChecksumMismatch`].
//!
//! Both layers are checked, and written, in **one pass** over the bytes
//! (`BodyCrc`). Framing bytes are hashed directly; a block is hashed once,
//! for its part CRC, and that *computed* value is folded into the running
//! file CRC with [`crate::crc32c::combine`]. Because `combine` is an
//! algebraic identity, the value compared with (or written as) the footer
//! *is* `crc32c(body)`: the stored part CRCs never enter it, so damage to a
//! block, to its stored CRC or to any framing byte is detected exactly as
//! by hashing the body a second time. When parsing stops at a structural
//! error, the unread rest of the body is hashed before the footer is
//! judged, so the precedence part mismatch > footer mismatch > structural
//! error holds for every input.
//!
//! Version-1 files (no checksums, `byte_len | block bytes`, no footer) are
//! still read transparently (there is no v1 writer; `tests/fixtures/` pins a
//! v1 file for the reader). All length/count fields parsed from the wire
//! are capped against the bytes actually remaining, so a corrupt count can
//! never trigger an oversized allocation.

use crate::block;
use crate::config::Config;
use crate::crc32c::{self, crc32c};
use crate::scheme::SchemeCode;
use crate::types::{ColumnData, ColumnType, StringArena};
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};
use btr_roaring::RoaringBitmap;

const MAGIC: &[u8; 4] = b"BTRB";
const VERSION_V1: u32 = 1;
const VERSION: u32 = 2;
/// `magic | version | row_count | column_count`.
const FILE_HEADER_LEN: usize = 4 + 4 + 8 + 4;

/// CRC32C of a v2 file body, built in the same pass that reads or writes it.
///
/// Framing bytes are hashed as they are; a block enters as its part CRC,
/// which the caller computed from the block's bytes anyway, so no byte of
/// the file is hashed twice. `crc` is always the finished CRC32C of
/// `file[..hashed_to]`.
struct BodyCrc {
    crc: u32,
    hashed_to: usize,
}

impl BodyCrc {
    fn new() -> Self {
        BodyCrc { crc: crc32c(b""), hashed_to: 0 }
    }

    /// Hashes the framing `file[self.hashed_to..until]`. Callers move
    /// forward and stay inside `file`; if one did not, the bytes would go
    /// unhashed and the footer comparison would fail, never pass.
    fn framing(&mut self, file: &[u8], until: usize) {
        let framing = file.get(self.hashed_to..until).unwrap_or_default();
        self.crc = !crc32c::extend(!self.crc, framing);
        self.hashed_to = until;
    }

    /// Advances over the framing before `part_start` and the `part_len`-byte
    /// part behind it, whose CRC32C is `part_crc`.
    fn part(&mut self, file: &[u8], part_start: usize, part_len: usize, part_crc: u32) {
        self.framing(file, part_start);
        self.crc = crc32c::combine(self.crc, part_crc, part_len as u64);
        self.hashed_to = part_start + part_len;
    }

    /// Hashes what is left of `body` and returns `crc32c(body)`.
    fn finish(mut self, body: &[u8]) -> u32 {
        self.framing(body, body.len());
        self.crc
    }
}

/// A named, typed column with optional NULLs.
///
/// NULL positions are tracked in a Roaring bitmap; the value slots at NULL
/// positions still exist and should hold a neutral value (0 / 0.0 / "") so
/// they compress away.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Values.
    pub data: ColumnData,
    /// NULL positions, if any.
    pub nulls: Option<RoaringBitmap>,
}

impl Column {
    /// A column without NULLs.
    pub fn new(name: impl Into<String>, data: ColumnData) -> Self {
        Column {
            name: name.into(),
            data,
            nulls: None,
        }
    }

    /// A column with a NULL bitmap.
    pub fn with_nulls(name: impl Into<String>, data: ColumnData, nulls: RoaringBitmap) -> Self {
        Column {
            name: name.into(),
            data,
            nulls: Some(nulls),
        }
    }

    /// Builds an integer column from optional values. NULL slots become `0`
    /// so they compress away; positions go into the Roaring bitmap (the
    /// paper's NULL representation).
    pub fn from_int_options(name: impl Into<String>, values: &[Option<i32>]) -> Self {
        let nulls = RoaringBitmap::from_sorted_iter(
            values
                .iter()
                .enumerate()
                // lint: allow(cast) row index: columns are in-memory Vecs well under u32::MAX rows
                .filter_map(|(i, v)| v.is_none().then_some(i as u32)),
        );
        let data = ColumnData::Int(values.iter().map(|v| v.unwrap_or(0)).collect());
        if nulls.is_empty() {
            Column::new(name, data)
        } else {
            Column::with_nulls(name, data, nulls)
        }
    }

    /// Builds a double column from optional values (NULL slots become `0.0`).
    pub fn from_double_options(name: impl Into<String>, values: &[Option<f64>]) -> Self {
        let nulls = RoaringBitmap::from_sorted_iter(
            values
                .iter()
                .enumerate()
                // lint: allow(cast) row index: columns are in-memory Vecs well under u32::MAX rows
                .filter_map(|(i, v)| v.is_none().then_some(i as u32)),
        );
        let data = ColumnData::Double(values.iter().map(|v| v.unwrap_or(0.0)).collect());
        if nulls.is_empty() {
            Column::new(name, data)
        } else {
            Column::with_nulls(name, data, nulls)
        }
    }

    /// Builds a string column from optional values (NULL slots become `""`).
    pub fn from_str_options(name: impl Into<String>, values: &[Option<&str>]) -> Self {
        let nulls = RoaringBitmap::from_sorted_iter(
            values
                .iter()
                .enumerate()
                // lint: allow(cast) row index: columns are in-memory Vecs well under u32::MAX rows
                .filter_map(|(i, v)| v.is_none().then_some(i as u32)),
        );
        let mut arena = StringArena::new();
        for v in values {
            arena.push(v.unwrap_or("").as_bytes());
        }
        let data = ColumnData::Str(arena);
        if nulls.is_empty() {
            Column::new(name, data)
        } else {
            Column::with_nulls(name, data, nulls)
        }
    }

    /// Returns `true` when row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        // lint: allow(cast) row index: columns are in-memory Vecs well under u32::MAX rows
        self.nulls.as_ref().is_some_and(|b| b.contains(i as u32))
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.nulls.as_ref().map_or(0, |b| b.cardinality() as usize)
    }
}

/// A set of equal-length columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    /// The columns.
    pub columns: Vec<Column>,
}

impl Relation {
    /// Builds a relation, asserting equal column lengths.
    pub fn new(columns: Vec<Column>) -> Self {
        if let Some(first) = columns.first() {
            let n = first.data.len();
            assert!(
                columns.iter().all(|c| c.data.len() == n),
                "all columns must have equal length"
            );
        }
        Relation { columns }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.data.len())
    }

    /// Total uncompressed size in bytes.
    pub fn heap_size(&self) -> usize {
        self.columns.iter().map(|c| c.data.heap_size()).sum()
    }
}

/// One compressed column: independent blocks plus the NULL bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedColumn {
    /// Column name.
    pub name: String,
    /// Column type.
    pub column_type: ColumnType,
    /// Serialized NULL bitmap (empty = no NULLs).
    pub nulls: Vec<u8>,
    /// Independent compressed blocks.
    pub blocks: Vec<Vec<u8>>,
    /// Root scheme chosen per block (not serialized; introspection only).
    pub schemes: Vec<SchemeCode>,
}

impl CompressedColumn {
    /// Bytes of the column's v2 framing ahead of its first block:
    /// `name_len | name | type tag | null_len | NULL bitmap | block_count`.
    fn header_len(&self) -> usize {
        2 + self.name.len() + 1 + 4 + self.nulls.len() + 4
    }

    /// Exact bytes the column occupies in the v2 file: its framing, NULL
    /// bitmap, and every block with its length and checksum fields.
    pub fn compressed_size(&self) -> usize {
        self.header_len() + self.blocks.iter().map(|b| 8 + b.len()).sum::<usize>()
    }
}

/// A compressed relation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedRelation {
    /// Row count.
    pub rows: u64,
    /// Compressed columns.
    pub columns: Vec<CompressedColumn>,
}

/// Byte range of one block's payload inside the v2 single-file layout, plus
/// the CRC32C the framing stores for it. Produced by
/// [`CompressedRelation::block_byte_ranges`]; lets a reader fetch and verify
/// a single block with one ranged GET instead of downloading the whole file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRange {
    /// Offset of the block payload from the start of the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// CRC32C of the payload (the same value the v2 framing stores).
    pub crc32c: u32,
}

impl CompressedRelation {
    /// Exact serialized length of [`CompressedRelation::to_bytes`] output:
    /// file header, every column's [`CompressedColumn::compressed_size`],
    /// footer CRC.
    pub fn compressed_size(&self) -> usize {
        FILE_HEADER_LEN + self.columns.iter().map(|c| c.compressed_size()).sum::<usize>() + 4
    }

    /// [`Self::compressed_size`] as a file offset.
    pub fn file_len(&self) -> u64 {
        self.compressed_size() as u64
    }

    /// Byte ranges of every block payload within the v2 file written by
    /// [`CompressedRelation::to_bytes`], per column in file order.
    ///
    /// This is the export hook for selective scans: a planner that prunes
    /// blocks via a zone-map sidecar can fetch only the surviving payloads
    /// with ranged GETs and verify each against its CRC, never touching the
    /// rest of the file.
    pub fn block_byte_ranges(&self) -> Vec<Vec<BlockRange>> {
        let mut pos = FILE_HEADER_LEN as u64;
        self.columns
            .iter()
            .map(|col| {
                pos += col.header_len() as u64;
                col.blocks
                    .iter()
                    .map(|b| {
                        pos += 8; // byte_len u32 | crc32c u32
                        let r = BlockRange {
                            offset: pos,
                            // lint: allow(cast) encode side: a block is far smaller than 4 GiB
                            len: b.len() as u32,
                            crc32c: crc32c(b),
                        };
                        pos += b.len() as u64;
                        r
                    })
                    .collect()
            })
            .collect()
    }

    /// Serializes to the checksummed v2 layout described in the module docs.
    /// Each block is hashed once, for its part CRC; the footer is derived
    /// from those (`BodyCrc`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.compressed_size());
        let mut file_crc = BodyCrc::new();
        out.extend_from_slice(MAGIC);
        out.put_u32(VERSION);
        out.extend_from_slice(&self.rows.to_le_bytes());
        // lint: allow(cast) encode side: in-memory field sizes fit the wire widths
        out.put_u32(self.columns.len() as u32);
        for col in &self.columns {
            let name = col.name.as_bytes();
            // lint: allow(cast) encode side: column names are short identifiers
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name);
            out.put_u8(col.column_type.tag());
            // lint: allow(cast) encode side: serialized bitmap is far smaller than 4 GiB
            out.put_u32(col.nulls.len() as u32);
            out.extend_from_slice(&col.nulls);
            // lint: allow(cast) encode side: block count fits u32
            out.put_u32(col.blocks.len() as u32);
            for b in &col.blocks {
                // lint: allow(cast) encode side: a block is far smaller than 4 GiB
                out.put_u32(b.len() as u32);
                let part_crc = crc32c(b);
                out.put_u32(part_crc);
                file_crc.part(&out, out.len(), b.len(), part_crc);
                out.extend_from_slice(b);
            }
        }
        let footer = file_crc.finish(&out);
        out.put_u32(footer);
        out
    }

    /// Parses the single-file layout (v1 or v2).
    ///
    /// For v2 every column part's CRC is verified before its scheme byte is
    /// inspected, and the whole-file CRC is accumulated in the same pass
    /// (`BodyCrc`), so each byte is hashed once. The most localized error
    /// wins: a part mismatch is reported as [`Error::ChecksumMismatch`];
    /// corruption that only the footer catches (framing bytes, trailing
    /// garbage) as [`Error::FileChecksumMismatch`]; a structural error
    /// survives only under a matching footer.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC {
            return Err(Error::Corrupt("bad magic"));
        }
        match r.u32()? {
            VERSION_V1 => Self::parse_columns(&mut r, None),
            VERSION => {
                // The footer is the last 4 bytes; everything before it is
                // covered by the file CRC.
                let body_len = bytes
                    .len()
                    .checked_sub(4)
                    .filter(|&l| l >= r.position())
                    .ok_or(Error::UnexpectedEnd)?;
                let body = bytes.get(..body_len).ok_or(Error::UnexpectedEnd)?;
                let footer_bytes: [u8; 4] = bytes
                    .get(body_len..)
                    .and_then(|s| s.try_into().ok())
                    .ok_or(Error::UnexpectedEnd)?;
                let footer = u32::from_le_bytes(footer_bytes);
                let mut file_crc = BodyCrc::new();
                let parsed = match Self::parse_columns(&mut r, Some((body, &mut file_crc))) {
                    // A localized part checksum failure beats the footer.
                    Err(e @ Error::ChecksumMismatch { .. }) => return Err(e),
                    parsed => parsed,
                };
                // Wherever parsing stopped, the rest of the body is hashed
                // now: the verdict is on every byte, as if hashed up front.
                if file_crc.finish(body) != footer {
                    // Structural damage the part CRCs couldn't localize.
                    return Err(Error::FileChecksumMismatch);
                }
                parsed
            }
            _ => Err(Error::Corrupt("unsupported version")),
        }
    }

    /// Parses the column table. `checksummed` is `Some((body, file_crc))`
    /// for v2 (per-part CRCs present, parsing must stop exactly at the end
    /// of `body`, every part read is folded into `file_crc`) and `None` for
    /// v1 (no CRCs, no footer).
    fn parse_columns(
        r: &mut Reader<'_>,
        mut checksummed: Option<(&[u8], &mut BodyCrc)>,
    ) -> Result<Self> {
        let v2 = checksummed.is_some();
        let checksummed_until = checksummed.as_ref().map(|(body, _)| body.len());
        // In v2, never read framing out of the footer's bytes.
        let limit = |r: &Reader<'_>| match checksummed_until {
            Some(body_len) => body_len - r.position().min(body_len),
            None => r.remaining(),
        };
        let rows = r.u64()?;
        let n_cols = r.u32()? as usize;
        // A column needs at least name_len + tag + null_len + block_count
        // bytes; cap the count so a corrupt field can't reserve gigabytes.
        if n_cols > limit(r) / 11 {
            return Err(Error::LimitExceeded("column count"));
        }
        let mut columns = Vec::with_capacity(n_cols);
        for col_idx in 0..n_cols {
            let name_len = r.u16()? as usize;
            if name_len > limit(r) {
                return Err(Error::UnexpectedEnd);
            }
            let name = String::from_utf8(r.take(name_len)?.to_vec())
                .map_err(|_| Error::Corrupt("column name not utf-8"))?;
            let column_type =
                ColumnType::from_tag(r.u8()?).ok_or(Error::Corrupt("bad column type tag"))?;
            let null_len = r.u32()? as usize;
            if null_len > limit(r) {
                return Err(Error::UnexpectedEnd);
            }
            let nulls = r.take(null_len)?.to_vec();
            let n_blocks = r.u32()? as usize;
            // Each block occupies at least its length field (+ CRC in v2).
            if n_blocks > limit(r) / if v2 { 8 } else { 4 } {
                return Err(Error::LimitExceeded("block count"));
            }
            let mut blocks = Vec::with_capacity(n_blocks);
            let mut schemes = Vec::with_capacity(n_blocks);
            for part_idx in 0..n_blocks {
                let len = r.u32()? as usize;
                let stored_crc = if v2 { Some(r.u32()?) } else { None };
                if len > limit(r) {
                    return Err(Error::UnexpectedEnd);
                }
                let part_start = r.position();
                let raw = r.take(len)?;
                if let (Some(stored), Some((body, file_crc))) = (stored_crc, checksummed.as_mut()) {
                    // The one hash of these bytes serves both layers: the
                    // computed value (never the stored one) goes into the
                    // file CRC, then decides the part.
                    let computed = crc32c(raw);
                    file_crc.part(body, part_start, len, computed);
                    // Verified before the scheme byte is even peeked at:
                    // damaged parts never reach a decoder.
                    if computed != stored {
                        return Err(Error::ChecksumMismatch {
                            // lint: allow(cast) bounded by a count read from a u32 field
                            column: col_idx as u32,
                            // lint: allow(cast) bounded by a count read from a u32 field
                            part: part_idx as u32,
                        });
                    }
                }
                let b = raw.to_vec();
                schemes.push(block::peek_scheme(&b)?);
                blocks.push(b);
            }
            columns.push(CompressedColumn {
                name,
                column_type,
                nulls,
                blocks,
                schemes,
            });
        }
        if let Some(body_len) = checksummed_until {
            if r.position() != body_len {
                return Err(Error::Corrupt("trailing bytes before footer"));
            }
        }
        Ok(CompressedRelation { rows, columns })
    }
}

/// Compresses every column of `rel` into independent blocks: the relation
/// codec loop ([`crate::parallel`]) at one worker, on the caller's thread,
/// with one [`crate::EncodeScratch`] that the first block warms for every
/// block after it.
pub fn compress(rel: &Relation, cfg: &Config) -> Result<CompressedRelation> {
    crate::parallel::compress_parallel(rel, cfg, 1)
}

/// Decompresses a file produced by [`CompressedRelation::to_bytes`]: the
/// relation codec loop at one worker, appending each block to its column as
/// soon as it is decoded.
pub fn decompress(bytes: &[u8], cfg: &Config) -> Result<Relation> {
    crate::parallel::decompress_parallel(&CompressedRelation::from_bytes(bytes)?, cfg, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_relation(rows: usize) -> Relation {
        let strings: Vec<String> = (0..rows).map(|i| format!("val-{}", i % 100)).collect();
        let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
        Relation::new(vec![
            Column::new("id", ColumnData::Int((0..rows as i32).collect())),
            Column::new(
                "price",
                ColumnData::Double((0..rows).map(|i| (i % 500) as f64 * 0.25).collect()),
            ),
            Column::new("label", ColumnData::Str(StringArena::from_strs(&refs))),
        ])
    }

    #[test]
    fn relation_roundtrip_via_bytes() {
        let cfg = Config::default();
        let rel = sample_relation(10_000);
        let compressed = compress(&rel, &cfg).unwrap();
        let bytes = compressed.to_bytes();
        assert!(bytes.len() < rel.heap_size(), "must compress overall");
        let restored = decompress(&bytes, &cfg).unwrap();
        assert_eq!(rel, restored);
    }

    #[test]
    fn multi_block_columns() {
        let cfg = Config {
            block_size: 1000,
            ..Config::default()
        };
        let rel = sample_relation(3_500);
        let compressed = compress(&rel, &cfg).unwrap();
        assert_eq!(compressed.columns[0].blocks.len(), 4);
        let restored = decompress(&compressed.to_bytes(), &cfg).unwrap();
        assert_eq!(rel, restored);
    }

    #[test]
    fn nulls_roundtrip() {
        let cfg = Config::default();
        let nulls = RoaringBitmap::from_sorted_iter([1u32, 5, 7]);
        let rel = Relation::new(vec![Column::with_nulls(
            "x",
            ColumnData::Int(vec![1, 0, 3, 4, 5, 0, 7, 0]),
            nulls.clone(),
        )]);
        let restored = decompress(&compress(&rel, &cfg).unwrap().to_bytes(), &cfg).unwrap();
        assert_eq!(restored.columns[0].nulls.as_ref(), Some(&nulls));
        assert_eq!(rel, restored);
    }

    #[test]
    fn empty_relation_roundtrip() {
        let cfg = Config::default();
        let rel = Relation::new(vec![
            Column::new("a", ColumnData::Int(Vec::new())),
            Column::new("b", ColumnData::Str(StringArena::new())),
        ]);
        let restored = decompress(&compress(&rel, &cfg).unwrap().to_bytes(), &cfg).unwrap();
        assert_eq!(rel, restored);
    }

    #[test]
    fn corrupt_magic_is_error() {
        let cfg = Config::default();
        let rel = sample_relation(100);
        let mut bytes = compress(&rel, &cfg).unwrap().to_bytes();
        bytes[0] = b'X';
        assert!(decompress(&bytes, &cfg).is_err());
    }

    #[test]
    fn from_options_builders() {
        let col = Column::from_int_options("i", &[Some(1), None, Some(3), None]);
        assert_eq!(col.null_count(), 2);
        assert!(col.is_null(1) && col.is_null(3));
        assert!(!col.is_null(0));
        assert_eq!(col.data, ColumnData::Int(vec![1, 0, 3, 0]));

        let col = Column::from_double_options("d", &[None, Some(2.5)]);
        assert_eq!(col.null_count(), 1);
        assert_eq!(col.data, ColumnData::Double(vec![0.0, 2.5]));

        let col = Column::from_str_options("s", &[Some("x"), None]);
        assert_eq!(col.null_count(), 1);
        match &col.data {
            ColumnData::Str(a) => {
                assert_eq!(a.get(0), b"x");
                assert_eq!(a.get(1), b"");
            }
            _ => panic!(),
        }

        // No NULLs → no bitmap at all.
        let col = Column::from_int_options("n", &[Some(1), Some(2)]);
        assert!(col.nulls.is_none());
    }

    #[test]
    fn null_columns_roundtrip_through_compression() {
        let cfg = Config::default();
        let values: Vec<Option<i32>> = (0..5_000)
            .map(|i| if i % 7 == 0 { None } else { Some(i % 50) })
            .collect();
        let rel = Relation::new(vec![Column::from_int_options("x", &values)]);
        let restored = decompress(&compress(&rel, &cfg).unwrap().to_bytes(), &cfg).unwrap();
        assert_eq!(restored, rel);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(restored.columns[0].is_null(i), v.is_none());
        }
    }

    #[test]
    fn flipped_block_bit_is_a_part_checksum_mismatch() {
        let cfg = Config {
            block_size: 500,
            ..Config::default()
        };
        let rel = sample_relation(2_000);
        let compressed = compress(&rel, &cfg).unwrap();
        let bytes = compressed.to_bytes();
        // Locate the last block of the last column inside the file: its
        // bytes are the `block.len()` bytes just before the footer.
        let last = compressed.columns.last().unwrap().blocks.last().unwrap();
        let part = compressed.columns.last().unwrap().blocks.len() as u32 - 1;
        let col = compressed.columns.len() as u32 - 1;
        let start = bytes.len() - 4 - last.len();
        for offset in [0, last.len() / 2, last.len() - 1] {
            let mut corrupt = bytes.clone();
            corrupt[start + offset] ^= 0x10;
            assert_eq!(
                CompressedRelation::from_bytes(&corrupt).unwrap_err(),
                Error::ChecksumMismatch { column: col, part },
                "flip at block offset {offset}"
            );
        }
    }

    #[test]
    fn framing_corruption_is_a_file_checksum_mismatch() {
        let cfg = Config::default();
        let rel = sample_relation(500);
        let bytes = compress(&rel, &cfg).unwrap().to_bytes();
        // Flip a bit in the column name (byte after the header + name_len).
        let mut corrupt = bytes.clone();
        corrupt[22] ^= 0x01; // first byte of the first column name "id"
        assert_eq!(
            CompressedRelation::from_bytes(&corrupt).unwrap_err(),
            Error::FileChecksumMismatch
        );
        // Flip the footer itself.
        let mut corrupt = bytes.clone();
        let n = corrupt.len();
        corrupt[n - 1] ^= 0x80;
        assert_eq!(
            CompressedRelation::from_bytes(&corrupt).unwrap_err(),
            Error::FileChecksumMismatch
        );
        // Trailing garbage is also caught.
        let mut corrupt = bytes.clone();
        corrupt.push(0xAB);
        assert!(CompressedRelation::from_bytes(&corrupt).is_err());
    }

    #[test]
    fn truncations_error_cleanly() {
        let cfg = Config::default();
        let rel = sample_relation(300);
        let bytes = compress(&rel, &cfg).unwrap().to_bytes();
        for len in 0..bytes.len() {
            assert!(
                CompressedRelation::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes must not parse"
            );
        }
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A file claiming 4 billion columns must be rejected by the limit
        // check, not by attempting the reservation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.put_u32(VERSION);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.put_u32(u32::MAX);
        let footer = crc32c(&bytes);
        bytes.put_u32(footer);
        assert_eq!(
            CompressedRelation::from_bytes(&bytes).unwrap_err(),
            Error::LimitExceeded("column count")
        );
    }

    #[test]
    fn block_byte_ranges_address_the_file() {
        let cfg = Config {
            block_size: 700,
            ..Config::default()
        };
        let rel = sample_relation(2_400);
        let compressed = compress(&rel, &cfg).unwrap();
        let bytes = compressed.to_bytes();
        assert_eq!(compressed.file_len(), bytes.len() as u64);
        let ranges = compressed.block_byte_ranges();
        assert_eq!(ranges.len(), compressed.columns.len());
        for (col, col_ranges) in compressed.columns.iter().zip(&ranges) {
            assert_eq!(col.blocks.len(), col_ranges.len());
            for (block, range) in col.blocks.iter().zip(col_ranges) {
                let start = range.offset as usize;
                let end = start + range.len as usize;
                assert_eq!(&bytes[start..end], block.as_slice());
                assert_eq!(crc32c(block), range.crc32c);
                // The framing immediately before the payload holds the same
                // length and CRC the range reports.
                let framed_len =
                    u32::from_le_bytes(bytes[start - 8..start - 4].try_into().unwrap());
                let framed_crc =
                    u32::from_le_bytes(bytes[start - 4..start].try_into().unwrap());
                assert_eq!(framed_len, range.len);
                assert_eq!(framed_crc, range.crc32c);
            }
        }
    }

    #[test]
    fn serialized_file_is_exactly_as_large_as_reserved() {
        // `compressed_size` once undercounted the per-column framing, so the
        // footer's push reallocated every file into a 2x-capacity buffer.
        let rel = two_pass::edge_case_relation();
        assert!(rel.columns.iter().any(|c| c.name.is_empty()));
        assert!(rel.columns.iter().any(|c| c.name.len() > 30));
        assert!(rel.columns.iter().any(|c| !c.nulls.is_empty()));
        let bytes = rel.to_bytes();
        assert_eq!(bytes.len(), bytes.capacity());
        assert_eq!(bytes.len(), rel.compressed_size());
        assert_eq!(bytes.len() as u64, rel.file_len());
        let columns: usize = rel.columns.iter().map(|c| c.compressed_size()).sum();
        assert_eq!(bytes.len(), FILE_HEADER_LEN + columns + 4);
    }

    #[test]
    fn every_file_byte_is_hashed_once() {
        use crate::crc32c::count_hashed;
        let rel = two_pass::edge_case_relation();
        let (file, hashed) = count_hashed(|| rel.to_bytes());
        let body_len = file.len() as u64 - 4;
        assert_eq!(hashed, body_len, "to_bytes");

        let (parsed, hashed) = count_hashed(|| CompressedRelation::from_bytes(&file));
        assert_eq!(parsed.unwrap(), rel);
        assert_eq!(hashed, body_len, "from_bytes, intact file");

        // Structural error: the first column's block count, corrupted. The
        // unread rest of the body is still hashed, exactly once.
        let block_count_at = FILE_HEADER_LEN + rel.columns[0].header_len() - 4;
        let mut corrupt = file.clone();
        corrupt[block_count_at..block_count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let (parsed, hashed) = count_hashed(|| CompressedRelation::from_bytes(&corrupt));
        assert_eq!(parsed.unwrap_err(), Error::FileChecksumMismatch);
        assert_eq!(hashed, body_len, "from_bytes, corrupt block count");

        // Footer-only flip.
        let mut corrupt = file.clone();
        *corrupt.last_mut().unwrap() ^= 0x01;
        let (parsed, hashed) = count_hashed(|| CompressedRelation::from_bytes(&corrupt));
        assert_eq!(parsed.unwrap_err(), Error::FileChecksumMismatch);
        assert_eq!(hashed, body_len, "from_bytes, footer flip");

        // Part mismatch: reading stops at the damaged part, so less is hashed.
        let range = rel.block_byte_ranges()[1][2];
        let mut corrupt = file.clone();
        corrupt[range.offset as usize] ^= 0x80;
        let (parsed, hashed) = count_hashed(|| CompressedRelation::from_bytes(&corrupt));
        assert_eq!(parsed.unwrap_err(), Error::ChecksumMismatch { column: 1, part: 2 });
        assert_eq!(hashed, range.offset + u64::from(range.len), "from_bytes, part mismatch");
    }

    #[test]
    fn schemes_are_reported() {
        let cfg = Config::default();
        let rel = Relation::new(vec![Column::new("zeros", ColumnData::Int(vec![0; 5000]))]);
        let compressed = compress(&rel, &cfg).unwrap();
        assert_eq!(compressed.columns[0].schemes, vec![SchemeCode::OneValue]);
        let parsed = CompressedRelation::from_bytes(&compressed.to_bytes()).unwrap();
        assert_eq!(parsed.columns[0].schemes, vec![SchemeCode::OneValue]);
    }
}

/// Test-only reference: the two-pass v2 reader [`CompressedRelation::from_bytes`]
/// replaced, and the differential test holding the one-pass reader to it.
///
/// `from_bytes_two_pass` hashes the whole body up front (`crc32c(body)`),
/// then parses and hashes every block a second time for its part CRC. It is
/// kept as written, with its own parser, so the comparison below does not
/// share a line with the code under test.
#[cfg(test)]
mod two_pass {
    use super::*;

    /// The reader as it stood before the file layer went single-pass.
    pub(crate) fn from_bytes_two_pass(bytes: &[u8]) -> Result<CompressedRelation> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != b"BTRB" {
            return Err(Error::Corrupt("bad magic"));
        }
        match r.u32()? {
            1 => parse_columns(&mut r, None),
            2 => {
                let body_len = bytes
                    .len()
                    .checked_sub(4)
                    .filter(|&l| l >= r.position())
                    .ok_or(Error::UnexpectedEnd)?;
                let body = &bytes[..body_len];
                let footer = u32::from_le_bytes(bytes[body_len..].try_into().unwrap());
                let footer_ok = crc32c(body) == footer;
                match parse_columns(&mut r, Some(body_len)) {
                    Err(e @ Error::ChecksumMismatch { .. }) => Err(e),
                    Err(e) => Err(if footer_ok { e } else { Error::FileChecksumMismatch }),
                    Ok(_) if !footer_ok => Err(Error::FileChecksumMismatch),
                    Ok(rel) => Ok(rel),
                }
            }
            _ => Err(Error::Corrupt("unsupported version")),
        }
    }

    fn parse_columns(
        r: &mut Reader<'_>,
        checksummed_until: Option<usize>,
    ) -> Result<CompressedRelation> {
        let v2 = checksummed_until.is_some();
        let limit = |r: &Reader<'_>| match checksummed_until {
            Some(body_len) => body_len - r.position().min(body_len),
            None => r.remaining(),
        };
        let rows = r.u64()?;
        let n_cols = r.u32()? as usize;
        if n_cols > limit(r) / 11 {
            return Err(Error::LimitExceeded("column count"));
        }
        let mut columns = Vec::with_capacity(n_cols);
        for col_idx in 0..n_cols {
            let name_len = r.u16()? as usize;
            if name_len > limit(r) {
                return Err(Error::UnexpectedEnd);
            }
            let name = String::from_utf8(r.take(name_len)?.to_vec())
                .map_err(|_| Error::Corrupt("column name not utf-8"))?;
            let column_type =
                ColumnType::from_tag(r.u8()?).ok_or(Error::Corrupt("bad column type tag"))?;
            let null_len = r.u32()? as usize;
            if null_len > limit(r) {
                return Err(Error::UnexpectedEnd);
            }
            let nulls = r.take(null_len)?.to_vec();
            let n_blocks = r.u32()? as usize;
            if n_blocks > limit(r) / if v2 { 8 } else { 4 } {
                return Err(Error::LimitExceeded("block count"));
            }
            let mut blocks = Vec::with_capacity(n_blocks);
            let mut schemes = Vec::with_capacity(n_blocks);
            for part_idx in 0..n_blocks {
                let len = r.u32()? as usize;
                let stored_crc = if v2 { Some(r.u32()?) } else { None };
                if len > limit(r) {
                    return Err(Error::UnexpectedEnd);
                }
                let raw = r.take(len)?;
                if let Some(crc) = stored_crc {
                    if crc32c(raw) != crc {
                        return Err(Error::ChecksumMismatch {
                            column: col_idx as u32,
                            part: part_idx as u32,
                        });
                    }
                }
                let b = raw.to_vec();
                schemes.push(block::peek_scheme(&b)?);
                blocks.push(b);
            }
            columns.push(CompressedColumn { name, column_type, nulls, blocks, schemes });
        }
        if let Some(body_len) = checksummed_until {
            if r.position() != body_len {
                return Err(Error::Corrupt("trailing bytes before footer"));
            }
        }
        Ok(CompressedRelation { rows, columns })
    }

    /// Both readers on `bytes`: same `Ok` value, or the same error down to the
    /// `column` / `part` of a [`Error::ChecksumMismatch`].
    fn assert_readers_agree(bytes: &[u8], what: std::fmt::Arguments<'_>) {
        assert_eq!(
            CompressedRelation::from_bytes(bytes),
            from_bytes_two_pass(bytes),
            "one-pass (left) and two-pass (right) readers disagree on {what}"
        );
    }

    /// Every single-byte XOR with `0x01`, `0x80`, `0xFF`, every truncation, and
    /// 1-16 appended bytes.
    fn assert_readers_agree_under_damage(file: &[u8]) {
        assert_readers_agree(file, format_args!("the undamaged file"));
        let mut damaged = file.to_vec();
        for at in 0..file.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                damaged[at] ^= mask;
                assert_readers_agree(&damaged, format_args!("byte {at} ^ {mask:#04x}"));
                damaged[at] ^= mask;
            }
        }
        for len in 0..file.len() {
            assert_readers_agree(&file[..len], format_args!("truncation to {len} bytes"));
        }
        for extra in 1..=16usize {
            for fill in [0x00u8, 0xA5] {
                damaged.truncate(file.len());
                damaged.resize(file.len() + extra, fill);
                assert_readers_agree(&damaged, format_args!("{extra} appended {fill:#04x} bytes"));
            }
        }
    }

    /// Multi-column, multi-block relation: NULL bitmaps, a long and an empty
    /// column name, an empty column (one zero-value block) and a column with no
    /// blocks at all.
    pub(crate) fn edge_case_relation() -> CompressedRelation {
        let cfg = Config { block_size: 100, ..Config::default() };
        let ints: Vec<Option<i32>> = (0..350).map(|i| (i % 9 != 0).then_some(i * 7 % 41)).collect();
        let doubles: Vec<Option<f64>> =
            (0..350).map(|i| (i % 13 != 0).then_some(f64::from(i % 50) * 0.25)).collect();
        let strings: Vec<String> = (0..350).map(|i| format!("name-{}", i % 17)).collect();
        let mut rel = compress(
            &Relation::new(vec![
                Column::from_int_options("", &ints),
                Column::from_double_options("a_rather_long_column_name_for_a_price", &doubles),
                Column::new("s", ColumnData::Str(StringArena::from_strs(&strings))),
            ]),
            &cfg,
        )
        .unwrap();
        let empty = Relation::new(vec![Column::new("empty", ColumnData::Int(Vec::new()))]);
        rel.columns.extend(compress(&empty, &cfg).unwrap().columns);
        rel.columns.push(CompressedColumn {
            name: "no_blocks".into(),
            column_type: ColumnType::Double,
            nulls: Vec::new(),
            blocks: Vec::new(),
            schemes: Vec::new(),
        });
        rel
    }

    #[test]
    fn readers_agree_on_the_v2_fixture_under_damage() {
        let file = include_bytes!("../tests/fixtures/v2_sample.btr");
        assert!(CompressedRelation::from_bytes(file).is_ok());
        assert_readers_agree_under_damage(file);
    }

    #[test]
    fn readers_agree_on_a_fresh_file_under_damage() {
        let rel = edge_case_relation();
        let file = rel.to_bytes();
        assert_eq!(CompressedRelation::from_bytes(&file).unwrap(), rel);
        assert_readers_agree_under_damage(&file);
    }

    #[test]
    fn readers_agree_on_a_zero_length_block_under_damage() {
        // The file layer frames and checksums an empty block like any other;
        // `peek_scheme` then rejects it, so the undamaged file is already a
        // structural error under a matching footer.
        let mut rel = edge_case_relation();
        rel.columns[1].blocks.push(Vec::new());
        let file = rel.to_bytes();
        assert_eq!(CompressedRelation::from_bytes(&file), Err(Error::UnexpectedEnd));
        assert_readers_agree_under_damage(&file);
    }

    #[test]
    fn readers_agree_on_structural_errors_under_a_matching_footer() {
        // Damage that a single-byte flip cannot produce: the framing is wrong
        // *and* the footer was recomputed over it, so the structural error is
        // the verdict and both readers must name the same one.
        let rel = edge_case_relation();
        let file = rel.to_bytes();
        let body_len = file.len() - 4;
        let reseal = |mut body: Vec<u8>| {
            let footer = crc32c(&body);
            body.extend_from_slice(&footer.to_le_bytes());
            body
        };
        let first_block_count = 20 + 2 + 1 + 4 + rel.columns[0].nulls.len();
        let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
        for (what, at, value) in [
            ("column count", 16, u32::MAX),
            ("column count + 1", 16, rel.columns.len() as u32 + 1),
            ("column count - 1", 16, rel.columns.len() as u32 - 1),
            ("block count", first_block_count, u32::MAX),
            ("block count + 1", first_block_count, rel.columns[0].blocks.len() as u32 + 1),
            ("first block length", first_block_count + 4, u32::MAX),
        ] {
            let mut body = file[..body_len].to_vec();
            body[at..at + 4].copy_from_slice(&value.to_le_bytes());
            cases.push((what, reseal(body)));
        }
        let mut bad_tag = file[..body_len].to_vec();
        bad_tag[22] = 9;
        cases.push(("type tag", reseal(bad_tag)));
        for cut in [1, 4, 11, 40] {
            cases.push(("short body", reseal(file[..body_len - cut].to_vec())));
        }
        let mut long = file[..body_len].to_vec();
        long.extend_from_slice(&[0; 7]);
        cases.push(("long body", reseal(long)));
        for (what, bytes) in &cases {
            let verdict = from_bytes_two_pass(bytes);
            assert!(
                !matches!(verdict, Ok(_) | Err(Error::FileChecksumMismatch)),
                "{what}: expected a structural or part error, got {verdict:?}"
            );
            assert_readers_agree(bytes, format_args!("{what}"));
        }
    }
}
