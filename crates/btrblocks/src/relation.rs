//! Relation-level API: columns, block splitting, and the file format.
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
//! Version-1 files (no checksums, `byte_len | block bytes`, no footer) are
//! still read transparently (there is no v1 writer; `tests/fixtures/` pins a
//! v1 file for the reader). All length/count fields parsed from the wire
//! are capped against the bytes actually remaining, so a corrupt count can
//! never trigger an oversized allocation.

use crate::block::{self, BlockRef};
use crate::config::Config;
use crate::crc32c::crc32c;
use crate::scheme::SchemeCode;
use crate::scratch::{DecodeScratch, EncodeScratch};
use crate::types::{ColumnData, ColumnType, DecodedColumn, StringArena};
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};
use btr_roaring::RoaringBitmap;

const MAGIC: &[u8; 4] = b"BTRB";
const VERSION_V1: u32 = 1;
const VERSION: u32 = 2;

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
    /// Compressed size in bytes (blocks + per-part checksums + null bitmap
    /// + framing), matching the v2 on-disk layout.
    pub fn compressed_size(&self) -> usize {
        self.blocks.iter().map(|b| b.len() + 8).sum::<usize>() + self.nulls.len() + 16
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
    /// Total compressed size in bytes, including framing and the footer.
    pub fn compressed_size(&self) -> usize {
        self.columns.iter().map(|c| c.compressed_size()).sum::<usize>() + 16 + 4
    }

    /// Exact serialized length of [`CompressedRelation::to_bytes`] output.
    pub fn file_len(&self) -> u64 {
        let mut len = 4 + 4 + 8 + 4u64; // magic | version | rows | column_count
        for col in &self.columns {
            len += 2 + col.name.len() as u64 + 1 + 4 + col.nulls.len() as u64 + 4;
            len += col.blocks.iter().map(|b| 8 + b.len() as u64).sum::<u64>();
        }
        len + 4 // footer CRC
    }

    /// Byte ranges of every block payload within the v2 file written by
    /// [`CompressedRelation::to_bytes`], per column in file order.
    ///
    /// This is the export hook for selective scans: a planner that prunes
    /// blocks via a zone-map sidecar can fetch only the surviving payloads
    /// with ranged GETs and verify each against its CRC, never touching the
    /// rest of the file.
    pub fn block_byte_ranges(&self) -> Vec<Vec<BlockRange>> {
        let mut pos = 4 + 4 + 8 + 4u64; // magic | version | rows | column_count
        self.columns
            .iter()
            .map(|col| {
                pos += 2 + col.name.len() as u64 + 1 + 4 + col.nulls.len() as u64 + 4;
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
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.compressed_size() + 64);
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
                out.put_u32(crc32c(b));
                out.extend_from_slice(b);
            }
        }
        let footer = crc32c(&out);
        out.put_u32(footer);
        out
    }

    /// Parses the single-file layout (v1 or v2).
    ///
    /// For v2 the whole-file footer CRC is computed up front, then every
    /// column part's CRC is verified before its scheme byte is inspected.
    /// The most localized error wins: a part mismatch is reported as
    /// [`Error::ChecksumMismatch`]; corruption that only the footer catches
    /// (framing bytes, trailing garbage) as [`Error::FileChecksumMismatch`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC {
            return Err(Error::Corrupt("bad magic"));
        }
        match r.u32()? {
            VERSION_V1 => Self::parse_columns(&mut r, None),
            VERSION => {
                // The footer is the last 4 bytes; everything before it is
                // covered by the file CRC. Verify the footer first so the
                // outcome is decided before any parsing of corrupt framing.
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
                let footer_ok = crc32c(body) == footer;
                let parsed = Self::parse_columns(&mut r, Some(body_len));
                match parsed {
                    // A localized part checksum failure beats the footer.
                    Err(e @ Error::ChecksumMismatch { .. }) => Err(e),
                    // Structural damage the part CRCs couldn't localize.
                    Err(e) => Err(if footer_ok { e } else { Error::FileChecksumMismatch }),
                    Ok(_) if !footer_ok => Err(Error::FileChecksumMismatch),
                    Ok(rel) => Ok(rel),
                }
            }
            _ => Err(Error::Corrupt("unsupported version")),
        }
    }

    /// Parses the column table. `checksummed_until` is `Some(body_len)` for
    /// v2 (per-part CRCs present, parsing must stop exactly at `body_len`)
    /// and `None` for v1 (no CRCs, no footer).
    fn parse_columns(r: &mut Reader<'_>, checksummed_until: Option<usize>) -> Result<Self> {
        let v2 = checksummed_until.is_some();
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
                let raw = r.take(len)?;
                if let Some(crc) = stored_crc {
                    // Verified before the scheme byte is even peeked at:
                    // damaged parts never reach a decoder.
                    if crc32c(raw) != crc {
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

/// Compresses every column of `rel` into independent blocks.
///
/// One [`EncodeScratch`] is shared across all columns, so the sample, trial,
/// and side-array buffers warmed up by the first block serve every block of
/// every column after it.
pub fn compress(rel: &Relation, cfg: &Config) -> Result<CompressedRelation> {
    let mut scratch = EncodeScratch::new();
    let mut columns = Vec::with_capacity(rel.columns.len());
    for col in &rel.columns {
        columns.push(compress_column_with_scratch(col, cfg, &mut scratch));
    }
    Ok(CompressedRelation {
        rows: rel.rows() as u64,
        columns,
    })
}

/// Compresses a single column.
pub fn compress_column(col: &Column, cfg: &Config) -> CompressedColumn {
    let mut scratch = EncodeScratch::new();
    compress_column_with_scratch(col, cfg, &mut scratch)
}

/// [`compress_column_into`] a fresh shell.
fn compress_column_with_scratch(
    col: &Column,
    cfg: &Config,
    scratch: &mut EncodeScratch,
) -> CompressedColumn {
    let mut out = CompressedColumn {
        name: String::new(),
        column_type: col.data.column_type(),
        nulls: Vec::new(),
        blocks: Vec::new(),
        schemes: Vec::new(),
    };
    compress_column_into(col, cfg, scratch, &mut out);
    out
}

/// Compresses `col` into an existing [`CompressedColumn`] shell, reusing its
/// name/nulls/blocks/schemes buffers in place.
///
/// With a warm `scratch` *and* a warm `out` (both already used for a column
/// of similar shape), recompressing an integer or double column performs
/// zero heap allocations for the pooled scheme set — the property the
/// `alloc_regression_encode` test pins down. String columns still allocate
/// in borrowed-key stats maps and FSST symbol-table training (DESIGN.md §12).
pub fn compress_column_into(
    col: &Column,
    cfg: &Config,
    scratch: &mut EncodeScratch,
    out: &mut CompressedColumn,
) {
    let n = col.data.len();
    let bs = cfg.block_size.max(1);
    let n_blocks = if n == 0 { 1 } else { n.div_ceil(bs) };
    // Reuse the shell's block buffers: trim extras into the scratch pool so
    // a shrinking recompression feeds later leases; grow with empty vectors
    // that size themselves on first write.
    while out.blocks.len() > n_blocks {
        if let Some(b) = out.blocks.pop() {
            scratch.release_u8(b);
        }
    }
    while out.blocks.len() < n_blocks {
        out.blocks.push(Vec::new());
    }
    out.schemes.clear();
    out.name.clear();
    out.name.push_str(&col.name);
    out.column_type = col.data.column_type();
    out.nulls.clear();
    if let Some(b) = col.nulls.as_ref() {
        out.nulls.extend_from_slice(&b.serialize());
    }
    let mut blocks = out.blocks.iter_mut();
    match &col.data {
        ColumnData::Int(values) => {
            for chunk in values.chunks(bs) {
                let buf = blocks.next().expect("shell sized to n_blocks above");
                out.schemes
                    .push(block::compress_block_into(BlockRef::Int(chunk), cfg, scratch, buf));
            }
        }
        ColumnData::Double(values) => {
            for chunk in values.chunks(bs) {
                let buf = blocks.next().expect("shell sized to n_blocks above");
                out.schemes
                    .push(block::compress_block_into(BlockRef::Double(chunk), cfg, scratch, buf));
            }
        }
        ColumnData::Str(arena) => {
            let mut sub = scratch.lease_arena();
            let mut start = 0;
            while start < n {
                let end = (start + bs).min(n);
                arena.gather_into(start..end, &mut sub);
                let buf = blocks.next().expect("shell sized to n_blocks above");
                out.schemes
                    .push(block::compress_block_into(BlockRef::Str(&sub), cfg, scratch, buf));
                start = end;
            }
            scratch.release_arena(sub);
        }
    }
    if n == 0 {
        // Keep an explicit empty block so decompression restores the column.
        let buf = blocks.next().expect("empty column shell holds one block");
        let code = match col.data.column_type() {
            ColumnType::Integer => {
                block::compress_block_into(BlockRef::Int(&[]), cfg, scratch, buf)
            }
            ColumnType::Double => {
                block::compress_block_into(BlockRef::Double(&[]), cfg, scratch, buf)
            }
            ColumnType::String => {
                let empty = scratch.lease_arena();
                let code = block::compress_block_into(BlockRef::Str(&empty), cfg, scratch, buf);
                scratch.release_arena(empty);
                code
            }
        };
        out.schemes.push(code);
    }
}

/// Decompresses a file produced by [`CompressedRelation::to_bytes`].
pub fn decompress(bytes: &[u8], cfg: &Config) -> Result<Relation> {
    let compressed = CompressedRelation::from_bytes(bytes)?;
    decompress_relation(&compressed, cfg)
}

/// Decompresses an in-memory [`CompressedRelation`].
pub fn decompress_relation(compressed: &CompressedRelation, cfg: &Config) -> Result<Relation> {
    let mut scratch = DecodeScratch::new();
    let mut columns = Vec::with_capacity(compressed.columns.len());
    for col in &compressed.columns {
        columns.push(decompress_column(col, cfg, &mut scratch)?);
    }
    Ok(Relation { columns })
}

/// Decompresses a single column (all blocks, concatenated): one leased block
/// buffer is reused across all of the column's blocks and returned to the
/// pool at the end, so a warm pool makes per-block decode allocation-free.
fn decompress_column(
    col: &CompressedColumn,
    cfg: &Config,
    scratch: &mut DecodeScratch,
) -> Result<Column> {
    let mut data = match col.column_type {
        ColumnType::Integer => ColumnData::Int(Vec::new()),
        ColumnType::Double => ColumnData::Double(Vec::new()),
        ColumnType::String => ColumnData::Str(StringArena::new()),
    };
    let mut decoded = scratch.lease_decoded(col.column_type);
    let result = (|| -> Result<()> {
        for b in &col.blocks {
            block::decompress_block_into(b, col.column_type, cfg, scratch, &mut decoded)?;
            match (&mut data, &decoded) {
                (ColumnData::Int(acc), DecodedColumn::Int(v)) => acc.extend_from_slice(v),
                (ColumnData::Double(acc), DecodedColumn::Double(v)) => acc.extend_from_slice(v),
                (ColumnData::Str(acc), DecodedColumn::Str(v)) => {
                    for i in 0..v.len() {
                        acc.push(v.get(i));
                    }
                }
                _ => return Err(Error::Corrupt("mixed block types in column")),
            }
        }
        Ok(())
    })();
    scratch.recycle(decoded);
    result?;
    let nulls = if col.nulls.is_empty() {
        None
    } else {
        Some(RoaringBitmap::deserialize(&col.nulls)?)
    };
    Ok(Column {
        name: col.name.clone(),
        data,
        nulls,
    })
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
    fn schemes_are_reported() {
        let cfg = Config::default();
        let rel = Relation::new(vec![Column::new("zeros", ColumnData::Int(vec![0; 5000]))]);
        let compressed = compress(&rel, &cfg).unwrap();
        assert_eq!(compressed.columns[0].schemes, vec![SchemeCode::OneValue]);
        let parsed = CompressedRelation::from_bytes(&compressed.to_bytes()).unwrap();
        assert_eq!(parsed.columns[0].schemes, vec![SchemeCode::OneValue]);
    }
}
