//! The container both baselines share: groups of column chunks, footer
//! metadata at the end. parquet-lite and orc-lite differ only in their
//! [`Format`]: the magic and how one chunk is encoded and decoded.
//!
//! ```text
//! magic
//! [chunk data ...]                     (encoded + optionally codec-compressed)
//! footer:
//!   column_count: u32
//!   per column: name_len u16 | name | type tag u8
//!   group_count: u32
//!   per group: row_count u32, per column: offset u64 | compressed_len u32 | raw_len u32
//!   codec tag: u8
//! footer_len: u32 | magic
//! ```
//!
//! Like real Parquet, the footer sits at the *end*: a reader wanting one
//! column of one row group must fetch the footer first (two dependent reads —
//! the access pattern discussed in the paper's §6.7 cost analysis).

use crate::encoding;
use crate::{Error, Result};
use btr_lz::Codec;
use btrblocks::writer::{Reader, WriteLe};
use btrblocks::{Column, ColumnData, ColumnType, Relation, StringArena};

/// Write-time options.
#[derive(Debug, Clone)]
pub struct WriteOptions {
    /// Rows per rowgroup. Default 2^17, the value the paper tuned Arrow to.
    pub rowgroup_size: usize,
    /// General-purpose compression applied to each encoded chunk.
    pub codec: Codec,
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions {
            rowgroup_size: 1 << 17,
            codec: Codec::None,
        }
    }
}

/// Per-column chunk location: `(offset, comp_len, raw_len)`.
pub type ChunkMeta = (u64, u32, u32);
/// One rowgroup: row count plus one [`ChunkMeta`] per column.
pub type RowGroupMeta = (u32, Vec<ChunkMeta>);

/// Parsed footer metadata.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Column names and types.
    pub columns: Vec<(String, ColumnType)>,
    /// Per rowgroup: row count and per-column `(offset, comp_len, raw_len)`.
    pub rowgroups: Vec<RowGroupMeta>,
    /// Codec used for all chunks.
    pub codec: Codec,
}

/// What one file format puts in the container.
#[derive(Debug, Clone, Copy)]
pub struct Format {
    /// Leading and trailing magic.
    pub magic: [u8; 4],
    /// Decodes one chunk of `count` values of the given type.
    pub decode: fn(&[u8], usize, ColumnType) -> Result<ColumnData>,
}

/// parquet-lite: Parquet's dictionary-with-fallback and hybrid chunks.
pub(crate) const PARQUET: Format = Format {
    magic: *b"PQL1",
    decode: encoding::decode_chunk,
};

/// Writes `rel` to a parquet-lite file.
pub fn write(rel: &Relation, opts: &WriteOptions) -> Vec<u8> {
    PARQUET.write(rel, opts.rowgroup_size, opts.codec, encoding::encode_chunk)
}

/// Reads a whole file back into a relation.
pub fn read(bytes: &[u8]) -> Result<Relation> {
    PARQUET.read(bytes)
}

/// Reads a single column by index across all rowgroups (a projection scan).
pub fn read_column(bytes: &[u8], column_index: usize) -> Result<Column> {
    PARQUET.read_column(bytes, column_index)
}

/// A length or count as its u32 wire field.
pub fn wire_u32(n: usize) -> u32 {
    // lint: allow(cast) encode side: chunks, counts and strings are far smaller than 4 GiB
    n as u32
}

fn codec_tag(codec: Codec) -> u8 {
    match codec {
        Codec::None => 0,
        Codec::SnappyLike => 1,
        Codec::Heavy => 2,
    }
}

fn codec_from_tag(tag: u8) -> Result<Codec> {
    Ok(match tag {
        0 => Codec::None,
        1 => Codec::SnappyLike,
        2 => Codec::Heavy,
        _ => return Err(Error::Corrupt("unknown codec tag")),
    })
}

fn column_slice(data: &ColumnData, rows: std::ops::Range<usize>) -> ColumnData {
    match data {
        ColumnData::Int(v) => ColumnData::Int(v.get(rows).unwrap_or_default().to_vec()),
        ColumnData::Double(v) => ColumnData::Double(v.get(rows).unwrap_or_default().to_vec()),
        ColumnData::Str(a) => {
            let mut slice = StringArena::with_capacity(rows.len(), 0);
            slice.extend_from_range(a, rows);
            ColumnData::Str(slice)
        }
    }
}

/// Appends a decoded chunk to its column, strings as one run of bytes.
fn append(acc: &mut ColumnData, chunk: ColumnData) -> Result<()> {
    match (acc, chunk) {
        (ColumnData::Int(a), ColumnData::Int(c)) => a.extend_from_slice(&c),
        (ColumnData::Double(a), ColumnData::Double(c)) => a.extend_from_slice(&c),
        (ColumnData::Str(a), ColumnData::Str(c)) => {
            // Arena offsets are u32: the column's bytes must stay below 4 GiB.
            u32::try_from(a.bytes.len() + c.bytes.len())
                .map_err(|_| Error::Corrupt("string column exceeds 4 GiB"))?;
            a.extend_from_range(&c, 0..c.len());
        }
        _ => return Err(Error::Corrupt("chunk type mismatch")),
    }
    Ok(())
}

impl Format {
    /// Writes `rel` in groups of `group_rows` rows, each column chunk
    /// encoded by `encode` and compressed by `codec`.
    pub fn write(
        &self,
        rel: &Relation,
        group_rows: usize,
        codec: Codec,
        encode: impl Fn(&ColumnData, &mut Vec<u8>),
    ) -> Vec<u8> {
        let mut out = self.magic.to_vec();
        let rows = rel.rows();
        let mut groups: Vec<RowGroupMeta> = Vec::new();
        let mut encoded = Vec::new();
        let mut start = 0usize;
        loop {
            let end = start.saturating_add(group_rows.max(1)).min(rows);
            let mut chunks = Vec::with_capacity(rel.columns.len());
            for col in &rel.columns {
                encoded.clear();
                encode(&column_slice(&col.data, start..end), &mut encoded);
                let compressed = codec.compress(&encoded);
                let (clen, rlen) = (wire_u32(compressed.len()), wire_u32(encoded.len()));
                chunks.push((out.len() as u64, clen, rlen));
                out.extend_from_slice(&compressed);
            }
            groups.push((wire_u32(end - start), chunks));
            start = end;
            if start >= rows {
                break;
            }
        }
        let footer_start = out.len();
        out.put_u32(wire_u32(rel.columns.len()));
        for col in &rel.columns {
            let name = col.name.as_bytes();
            // lint: allow(cast) encode side: column names are far shorter than 64 KiB
            out.put_u16(name.len() as u16);
            out.extend_from_slice(name);
            out.put_u8(col.data.column_type().tag());
        }
        out.put_u32(wire_u32(groups.len()));
        for (count, chunks) in &groups {
            out.put_u32(*count);
            for &(off, clen, rlen) in chunks {
                out.put_u64(off);
                out.put_u32(clen);
                out.put_u32(rlen);
            }
        }
        out.put_u8(codec_tag(codec));
        out.put_u32(wire_u32(out.len() - footer_start));
        out.extend_from_slice(&self.magic);
        out
    }

    /// Parses only the footer (the metadata fetch a real reader does first).
    pub fn read_meta(&self, bytes: &[u8]) -> Result<FileMeta> {
        let magic = self.magic.as_slice();
        let (body, trailer) = bytes.split_at(bytes.len().saturating_sub(8));
        if body.len() < magic.len() || !body.starts_with(magic) || !trailer.ends_with(magic) {
            return Err(Error::Corrupt("bad magic"));
        }
        let footer_len = Reader::new(trailer).u32()? as usize;
        // The footer may not reach back into the leading magic.
        let footer = (body.len().checked_sub(footer_len))
            .filter(|&start| start >= magic.len())
            .and_then(|start| body.get(start..))
            .ok_or(Error::Corrupt("footer length out of range"))?;
        let mut r = Reader::new(footer);
        let n_cols = r.u32()? as usize;
        // Each column takes at least 3 footer bytes (name_len + type tag), so a
        // count past that bound is corrupt — reject before reserving for it.
        if n_cols > footer.len() / 3 {
            return Err(Error::Corrupt("column count exceeds footer"));
        }
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let name_len = usize::from(r.u16()?);
            let (name, tag) = (r.take(name_len)?, r.u8()?);
            let name = String::from_utf8(name.to_vec())
                .map_err(|_| Error::Corrupt("column name not utf-8"))?;
            columns.push((name, ColumnType::from_tag(tag).ok_or(Error::Corrupt("bad type tag"))?));
        }
        let n_groups = r.u32()? as usize;
        // Each rowgroup needs a 4-byte row count at minimum.
        if n_groups > footer.len() / 4 {
            return Err(Error::Corrupt("rowgroup count exceeds footer"));
        }
        let mut rowgroups = Vec::with_capacity(n_groups);
        for _ in 0..n_groups {
            let count = r.u32()?;
            let mut chunks = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                chunks.push((r.u64()?, r.u32()?, r.u32()?));
            }
            rowgroups.push((count, chunks));
        }
        let codec = codec_from_tag(r.u8()?)?;
        Ok(FileMeta { columns, rowgroups, codec })
    }

    /// Reads a whole file back into a relation.
    pub fn read(&self, bytes: &[u8]) -> Result<Relation> {
        let meta = self.read_meta(bytes)?;
        let columns = (0..meta.columns.len())
            .map(|ci| self.column(bytes, &meta, ci))
            .collect::<Result<_>>()?;
        Ok(Relation { columns })
    }

    /// Reads a single column by index across all groups (a projection scan).
    pub fn read_column(&self, bytes: &[u8], column_index: usize) -> Result<Column> {
        self.column(bytes, &self.read_meta(bytes)?, column_index)
    }

    fn column(&self, bytes: &[u8], meta: &FileMeta, ci: usize) -> Result<Column> {
        let out_of_range = Error::Corrupt("column index out of range");
        let (name, ty) = meta.columns.get(ci).ok_or(out_of_range.clone())?;
        let mut acc: Option<ColumnData> = None;
        for (count, chunks) in &meta.rowgroups {
            let &(off, clen, rlen) = chunks.get(ci).ok_or(out_of_range.clone())?;
            let compressed = usize::try_from(off)
                .ok()
                .and_then(|off| bytes.get(off..off.checked_add(clen as usize)?))
                .ok_or(Error::Corrupt("chunk offset out of range"))?;
            let encoded = meta.codec.decompress(compressed)?;
            if encoded.len() != rlen as usize {
                return Err(Error::Corrupt("chunk length mismatch"));
            }
            let chunk = (self.decode)(&encoded, *count as usize, *ty)?;
            match &mut acc {
                None => acc = Some(chunk),
                Some(a) => append(a, chunk)?,
            }
        }
        let data = acc.unwrap_or(match ty {
            ColumnType::Integer => ColumnData::Int(Vec::new()),
            ColumnType::Double => ColumnData::Double(Vec::new()),
            ColumnType::String => ColumnData::Str(StringArena::new()),
        });
        Ok(Column::new(name.clone(), data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize) -> Relation {
        let strings: Vec<String> = (0..rows).map(|i| format!("g{}", i % 20)).collect();
        let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
        Relation::new(vec![
            Column::new("a", ColumnData::Int((0..rows as i32).collect())),
            Column::new("b", ColumnData::Double((0..rows).map(|i| i as f64 * 0.5).collect())),
            Column::new("c", ColumnData::Str(StringArena::from_strs(&refs))),
        ])
    }

    #[test]
    fn roundtrip_multi_rowgroup() {
        let rel = sample(5_000);
        let opts = WriteOptions {
            rowgroup_size: 1_000,
            codec: Codec::SnappyLike,
        };
        let bytes = write(&rel, &opts);
        let meta = PARQUET.read_meta(&bytes).unwrap();
        assert_eq!(meta.rowgroups.len(), 5);
        assert_eq!(read(&bytes).unwrap(), rel);
    }

    #[test]
    fn single_column_projection() {
        let rel = sample(2_000);
        let bytes = write(&rel, &WriteOptions::default());
        let col = read_column(&bytes, 1).unwrap();
        assert_eq!(col.name, "b");
        assert_eq!(col.data, rel.columns[1].data);
    }

    #[test]
    fn empty_relation() {
        let rel = Relation::new(vec![Column::new("x", ColumnData::Int(Vec::new()))]);
        let bytes = write(&rel, &WriteOptions::default());
        assert_eq!(read(&bytes).unwrap(), rel);
    }

    #[test]
    fn corrupt_footer_is_error() {
        let rel = sample(100);
        let mut bytes = write(&rel, &WriteOptions::default());
        let n = bytes.len();
        bytes[n - 1] = 0;
        assert!(read(&bytes).is_err());
        assert!(read(&[1, 2, 3]).is_err());
    }
}
