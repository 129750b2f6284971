//! Block-level compress/decompress entry points.
//!
//! A *block* is the unit of scheme selection: up to `Config::block_size`
//! values of one column. Block bytes are fully self-contained (scheme frame +
//! payload, recursively), so blocks can be fetched and decoded independently
//! — the property that lets BtrBlocks ship metadata-free files and
//! parallelize scans (paper §2.1).

use crate::config::Config;
use crate::scheme::{self, SchemeCode};
use crate::scratch::Scratch;
use crate::types::{ColumnType, DecodedColumn, StringArena};
use crate::writer::Reader;
use crate::{Error, Result};

/// A borrowed view of one block's values.
#[derive(Debug, Clone, Copy)]
pub enum BlockRef<'a> {
    /// Integer values.
    Int(&'a [i32]),
    /// Double values.
    Double(&'a [f64]),
    /// String values.
    Str(&'a StringArena),
}

impl BlockRef<'_> {
    /// Number of values in the block.
    pub fn len(&self) -> usize {
        match self {
            BlockRef::Int(v) => v.len(),
            BlockRef::Double(v) => v.len(),
            BlockRef::Str(a) => a.len(),
        }
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Uncompressed size in bytes.
    pub fn heap_size(&self) -> usize {
        match self {
            BlockRef::Int(v) => v.len() * 4,
            BlockRef::Double(v) => v.len() * 8,
            BlockRef::Str(a) => a.heap_size(),
        }
    }

    /// The block's column type.
    pub fn column_type(&self) -> ColumnType {
        match self {
            BlockRef::Int(_) => ColumnType::Integer,
            BlockRef::Double(_) => ColumnType::Double,
            BlockRef::Str(_) => ColumnType::String,
        }
    }
}

/// Compresses one block, returning its bytes and the root scheme chosen.
pub fn compress_block(data: BlockRef<'_>, cfg: &Config) -> (Vec<u8>, SchemeCode) {
    let mut scratch = Scratch::new();
    let mut out = Vec::with_capacity(data.heap_size() / 4 + 64);
    let code = compress_block_into(data, cfg, &mut scratch, &mut out);
    (out, code)
}

/// [`compress_block`] appending into a caller-owned buffer (cleared first)
/// and leasing all encode temporaries from `scratch`. This is what the
/// block-parallel workers call: one scratch + one output buffer per worker,
/// zero allocations once both are warm.
pub fn compress_block_into(
    data: BlockRef<'_>,
    cfg: &Config,
    scratch: &mut Scratch,
    out: &mut Vec<u8>,
) -> SchemeCode {
    out.clear();
    match data {
        BlockRef::Int(v) => scheme::compress_into(v, cfg.max_cascade_depth, cfg, scratch, out, None),
        BlockRef::Double(v) => scheme::compress_into(v, cfg.max_cascade_depth, cfg, scratch, out, None),
        BlockRef::Str(a) => scheme::compress_str_into(a, cfg.max_cascade_depth, cfg, scratch, out),
    }
}

/// Compresses one block with a forced root scheme (ablation harnesses).
pub fn compress_block_with(code: SchemeCode, data: BlockRef<'_>, cfg: &Config) -> Vec<u8> {
    let mut scratch = Scratch::new();
    let mut out = Vec::with_capacity(data.heap_size() / 4 + 64);
    compress_block_with_into(code, data, cfg, &mut scratch, &mut out);
    out
}

/// [`compress_block_with`] appending into a caller-owned buffer (cleared
/// first) and leasing all encode temporaries from `scratch`.
pub fn compress_block_with_into(
    code: SchemeCode,
    data: BlockRef<'_>,
    cfg: &Config,
    scratch: &mut Scratch,
    out: &mut Vec<u8>,
) {
    out.clear();
    match data {
        BlockRef::Int(v) => {
            scheme::compress_with_into(code, v, cfg.max_cascade_depth, cfg, scratch, out)
        }
        BlockRef::Double(v) => {
            scheme::compress_with_into(code, v, cfg.max_cascade_depth, cfg, scratch, out)
        }
        BlockRef::Str(a) => {
            scheme::compress_str_with_into(code, a, cfg.max_cascade_depth, cfg, scratch, out)
        }
    }
}

/// Decompresses one block of the given type.
pub fn decompress_block(bytes: &[u8], ty: ColumnType, cfg: &Config) -> Result<DecodedColumn> {
    let mut scratch = Scratch::new();
    let mut out = scratch.lease_decoded(ty);
    decompress_block_into(bytes, ty, cfg, &mut scratch, &mut out)?;
    Ok(out)
}

/// Decompresses one block of the given type into `out`, reusing its buffers
/// and leasing all decode temporaries from `scratch`.
///
/// If `out` holds a different variant than `ty` asks for, its buffers are
/// recycled into `scratch` and a matching variant is leased back out, so a
/// caller decoding a mixed-type column stream still allocates nothing once
/// the pool is warm.
pub fn decompress_block_into(
    bytes: &[u8],
    ty: ColumnType,
    cfg: &Config,
    scratch: &mut Scratch,
    out: &mut DecodedColumn,
) -> Result<()> {
    if out.column_type() != ty {
        let old = std::mem::replace(out, scratch.lease_decoded(ty));
        scratch.recycle(old);
    }
    let mut r = Reader::new(bytes);
    match out {
        DecodedColumn::Int(v) => scheme::decompress_into(&mut r, cfg, scratch, v)?,
        DecodedColumn::Double(v) => scheme::decompress_into(&mut r, cfg, scratch, v)?,
        DecodedColumn::Str(s) => scheme::decompress_str_into(&mut r, cfg, scratch, s)?,
    }
    if !r.rest().is_empty() {
        return Err(Error::Corrupt("trailing bytes after block"));
    }
    Ok(())
}

/// Reads the root scheme code of a compressed block without decoding it.
pub fn peek_scheme(bytes: &[u8]) -> Result<SchemeCode> {
    let mut r = Reader::new(bytes);
    SchemeCode::from_u8(r.u8()?)
}

/// Reads the value count from a compressed block's frame header without
/// decoding it. This is exactly the count the decoder will produce on
/// success, which makes it the rows-of-output cost for decode morsels.
pub fn peek_count(bytes: &[u8]) -> Result<usize> {
    let mut r = Reader::new(bytes);
    r.u8()?;
    Ok(r.u32()? as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_block_roundtrip_and_scheme_sanity() {
        let cfg = Config::default();
        let values: Vec<i32> = (0..64_000).map(|i| i / 500).collect();
        let (bytes, code) = compress_block(BlockRef::Int(&values), &cfg);
        assert!(bytes.len() < values.len() * 4 / 10, "should compress run data well");
        assert_eq!(peek_scheme(&bytes).unwrap(), code);
        match decompress_block(&bytes, ColumnType::Integer, &cfg).unwrap() {
            DecodedColumn::Int(out) => assert_eq!(out, values),
            other => panic!("wrong type: {other:?}"),
        }
    }

    #[test]
    fn one_value_block_chooses_onevalue() {
        let cfg = Config::default();
        let values = vec![0i32; 64_000];
        let (bytes, code) = compress_block(BlockRef::Int(&values), &cfg);
        assert_eq!(code, SchemeCode::OneValue);
        assert!(bytes.len() < 16);
    }

    #[test]
    fn price_doubles_roundtrip() {
        let cfg = Config::default();
        let values: Vec<f64> = (0..64_000).map(|i| (i % 5000) as f64 * 0.01).collect();
        let (bytes, _) = compress_block(BlockRef::Double(&values), &cfg);
        assert!(bytes.len() < values.len() * 8 / 2);
        match decompress_block(&bytes, ColumnType::Double, &cfg).unwrap() {
            DecodedColumn::Double(out) => {
                assert!(values.iter().zip(&out).all(|(a, b)| a.to_bits() == b.to_bits()));
            }
            other => panic!("wrong type: {other:?}"),
        }
    }

    #[test]
    fn string_block_roundtrip() {
        let cfg = Config::default();
        let strings: Vec<String> = (0..5_000).map(|i| format!("city-{}", i % 40)).collect();
        let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
        let arena = StringArena::from_strs(&refs);
        let (bytes, _) = compress_block(BlockRef::Str(&arena), &cfg);
        assert!(bytes.len() * 5 < arena.heap_size());
        match decompress_block(&bytes, ColumnType::String, &cfg).unwrap() {
            DecodedColumn::Str(views) => {
                assert_eq!(views.len(), arena.len());
                for i in 0..arena.len() {
                    assert_eq!(views.get(i), arena.get(i));
                }
            }
            other => panic!("wrong type: {other:?}"),
        }
    }

    #[test]
    fn absurd_count_is_rejected_not_allocated() {
        // A 13-byte OneValue frame claiming 2^32-1 values must not trigger a
        // 34 GB allocation (found by the corruption fuzzer).
        let cfg = Config::default();
        let mut bytes = vec![SchemeCode::OneValue as u8];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0.0f64.to_le_bytes());
        assert!(decompress_block(&bytes, ColumnType::Double, &cfg).is_err());
        // And the limit is configurable upward.
        let big = Config { max_block_values: usize::MAX, block_size: 1 << 20, ..Config::default() };
        let values = vec![7i32; 100_000];
        let (ok_bytes, _) = compress_block(BlockRef::Int(&values), &big);
        assert!(decompress_block(&ok_bytes, ColumnType::Integer, &big).is_ok());
    }

    #[test]
    fn trailing_garbage_is_error() {
        let cfg = Config::default();
        let (mut bytes, _) = compress_block(BlockRef::Int(&[1, 2, 3]), &cfg);
        bytes.push(0);
        assert!(decompress_block(&bytes, ColumnType::Integer, &cfg).is_err());
    }

    #[test]
    fn wrong_type_is_error() {
        let cfg = Config::default();
        let values: Vec<f64> = (0..100).map(|i| i as f64 + 0.5).collect();
        let (bytes, _) = compress_block(BlockRef::Double(&values), &cfg);
        // Interpreting a double block as integers must fail, not panic.
        assert!(decompress_block(&bytes, ColumnType::Integer, &cfg).is_err());
    }
}
