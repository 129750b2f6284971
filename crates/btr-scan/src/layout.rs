//! Block-location sidecar: where each block's bytes live inside a v2 file.
//!
//! The data file stays metadata-free (paper §2.1); pruning needs to know
//! *which bytes to skip*, and that knowledge — like the zone maps — lives in
//! a sidecar "added on top". A [`RelationLayout`] records, per column, the
//! byte range and CRC of every block payload inside the serialized relation,
//! so a scan can fetch exactly the surviving blocks with ranged GETs and
//! verify each body without ever downloading the framing around it.

use crate::{Result, ScanError};
use btrblocks::writer::{Reader, WriteLe};
use btrblocks::{BlockRange, ColumnType, CompressedRelation};

const MAGIC: &[u8; 4] = b"BTRL";
const VERSION: u32 = 1;

/// Block locations for one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnLayout {
    /// Column name (matches the data file).
    pub name: String,
    /// Column type.
    pub column_type: ColumnType,
    /// Payload range + CRC of every block, in block order.
    pub blocks: Vec<BlockRange>,
}

/// Where every block of a serialized relation lives; see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationLayout {
    /// Row count of the relation.
    pub rows: u64,
    /// Exact length of the serialized v2 file.
    pub file_len: u64,
    /// Per-column block locations, in file order.
    pub columns: Vec<ColumnLayout>,
}

impl RelationLayout {
    /// Derives the layout of `compressed`'s v2 serialization
    /// ([`CompressedRelation::to_bytes`]). Typically computed once at write
    /// time and stored next to the object, like the zone-map sidecar.
    pub fn of(compressed: &CompressedRelation) -> RelationLayout {
        let ranges = compressed.block_byte_ranges();
        RelationLayout {
            rows: compressed.rows,
            file_len: compressed.file_len(),
            columns: compressed
                .columns
                .iter()
                .zip(ranges)
                .map(|(col, blocks)| ColumnLayout {
                    name: col.name.clone(),
                    column_type: col.column_type,
                    blocks,
                })
                .collect(),
        }
    }

    /// Finds a column's layout by name.
    pub fn column(&self, name: &str) -> Option<&ColumnLayout> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Serializes the layout (magic `BTRL`, little-endian fields).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.put_u32(VERSION);
        out.extend_from_slice(&self.rows.to_le_bytes());
        out.extend_from_slice(&self.file_len.to_le_bytes());
        // lint: allow(cast) encode side: column count is far smaller than 4 GiB
        out.put_u32(self.columns.len() as u32);
        for col in &self.columns {
            let name = col.name.as_bytes();
            // lint: allow(cast) encode side: column names are far shorter than 64 KiB
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name);
            out.put_u8(col.column_type.tag());
            // lint: allow(cast) encode side: block count is far smaller than 4 GiB
            out.put_u32(col.blocks.len() as u32);
            for b in &col.blocks {
                out.extend_from_slice(&b.offset.to_le_bytes());
                out.put_u32(b.len);
                out.put_u32(b.crc32c);
            }
        }
        out
    }

    /// Parses a layout written by [`RelationLayout::to_bytes`]. Counts are
    /// capped against the bytes remaining, mirroring the decode-hardening
    /// policy of the data format itself.
    pub fn from_bytes(bytes: &[u8]) -> Result<RelationLayout> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC {
            return Err(ScanError::CorruptLayout("bad magic"));
        }
        if r.u32()? != VERSION {
            return Err(ScanError::CorruptLayout("unsupported version"));
        }
        let rows = r.u64()?;
        let file_len = r.u64()?;
        let n_cols = r.u32()? as usize;
        // A column needs at least name_len + tag + block_count bytes.
        if n_cols > r.remaining() / 7 {
            return Err(ScanError::CorruptLayout("column count exceeds input"));
        }
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let name_len = {
                let b = r.take(2)?;
                // lint: allow(indexing) take(2) returns exactly 2 bytes
                u16::from_le_bytes([b[0], b[1]]) as usize
            };
            if name_len > r.remaining() {
                return Err(ScanError::CorruptLayout("name length exceeds input"));
            }
            let name = String::from_utf8(r.take(name_len)?.to_vec())
                .map_err(|_| ScanError::CorruptLayout("column name not utf-8"))?;
            let column_type = ColumnType::from_tag(r.u8()?)
                .ok_or(ScanError::CorruptLayout("bad column type tag"))?;
            let n_blocks = r.u32()? as usize;
            if n_blocks > r.remaining() / 16 {
                return Err(ScanError::CorruptLayout("block count exceeds input"));
            }
            let mut blocks = Vec::with_capacity(n_blocks);
            for _ in 0..n_blocks {
                let offset = r.u64()?;
                let len = r.u32()?;
                let crc = r.u32()?;
                if offset.saturating_add(u64::from(len)) > file_len {
                    return Err(ScanError::CorruptLayout("block range outside file"));
                }
                blocks.push(BlockRange {
                    offset,
                    len,
                    crc32c: crc,
                });
            }
            columns.push(ColumnLayout {
                name,
                column_type,
                blocks,
            });
        }
        if !r.rest().is_empty() {
            return Err(ScanError::CorruptLayout("trailing bytes"));
        }
        Ok(RelationLayout {
            rows,
            file_len,
            columns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrblocks::{Column, ColumnData, Config, Relation, StringArena};

    fn sample_layout() -> RelationLayout {
        let cfg = Config {
            block_size: 500,
            ..Config::default()
        };
        let strings: Vec<String> = (0..1_700).map(|i| format!("v{}", i % 9)).collect();
        let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
        let rel = Relation::new(vec![
            Column::new("a", ColumnData::Int((0..1_700).collect())),
            Column::new("s", ColumnData::Str(StringArena::from_strs(&refs))),
        ]);
        let compressed = btrblocks::compress(&rel, &cfg).unwrap();
        RelationLayout::of(&compressed)
    }

    #[test]
    fn layout_roundtrips() {
        let layout = sample_layout();
        assert_eq!(layout.columns.len(), 2);
        assert_eq!(layout.columns[0].blocks.len(), 4);
        let bytes = layout.to_bytes();
        assert_eq!(RelationLayout::from_bytes(&bytes).unwrap(), layout);
        assert!(layout.column("s").is_some());
        assert!(layout.column("nope").is_none());
    }

    #[test]
    fn truncations_and_garbage_error_cleanly() {
        let layout = sample_layout();
        let bytes = layout.to_bytes();
        for len in 0..bytes.len() {
            assert!(
                RelationLayout::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes must not parse"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(RelationLayout::from_bytes(&trailing).is_err());
        assert!(RelationLayout::from_bytes(b"BTRLjunk").is_err());
    }

    #[test]
    fn hostile_counts_are_capped() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.put_u32(VERSION);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.put_u32(u32::MAX);
        assert_eq!(
            RelationLayout::from_bytes(&bytes).unwrap_err(),
            ScanError::CorruptLayout("column count exceeds input")
        );
    }

    #[test]
    fn block_ranges_must_fit_the_file() {
        let layout = sample_layout();
        let mut bad = layout.clone();
        bad.columns[0].blocks[0].offset = layout.file_len;
        let bytes = bad.to_bytes();
        assert_eq!(
            RelationLayout::from_bytes(&bytes).unwrap_err(),
            ScanError::CorruptLayout("block range outside file")
        );
    }
}
