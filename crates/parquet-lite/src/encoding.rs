//! Column-chunk encodings: PLAIN and DICTIONARY with Parquet's fallback rule.
//!
//! Parquet's default C++ writer tries dictionary encoding first and falls
//! back to plain if the dictionary grows too large — there is no sampling and
//! no per-block adaptivity. This module reproduces that rule: the dictionary
//! is built while scanning the chunk and abandoned the moment it exceeds
//! [`DICT_SIZE_LIMIT`] entries or [`DICT_BYTES_LIMIT`] pool bytes.
//!
//! Chunk layout: `[encoding: u8]` then either
//! * PLAIN — raw values (ints/doubles LE; strings as `u32 len + bytes` each),
//! * DICT — `[dict_len: u32][dict payload][width: u8][index_len: u32][hybrid
//!   indices]`.

use crate::file::wire_u32;
use crate::hybrid;
use crate::{Error, Result};
use btrblocks::scheme::fixed::Value;
use btrblocks::writer::{Reader, WriteLe};
use btrblocks::{ColumnData, ColumnType, StringArena};
use std::collections::HashMap;

/// Maximum dictionary entries before falling back to plain (Parquet's
/// default dictionary page size translated to entries at ~16 B/entry).
pub const DICT_SIZE_LIMIT: usize = 65_536;

/// Maximum dictionary pool bytes before falling back to plain (Parquet
/// default `dictionary_pagesize_limit` = 1 MiB).
pub const DICT_BYTES_LIMIT: usize = 1 << 20;

const ENC_PLAIN: u8 = 0;
const ENC_DICT: u8 = 1;

/// Encodes one column chunk.
pub fn encode_chunk(data: &ColumnData, out: &mut Vec<u8>) {
    match data {
        ColumnData::Int(values) => encode_fixed(values, out),
        ColumnData::Double(values) => encode_fixed(values, out),
        ColumnData::Str(arena) => encode_str(arena, out),
    }
}

/// Decodes one column chunk of `count` values.
pub fn decode_chunk(buf: &[u8], count: usize, ty: ColumnType) -> Result<ColumnData> {
    let mut r = Reader::new(buf);
    match ty {
        ColumnType::Integer => decode_fixed(&mut r, count).map(ColumnData::Int),
        ColumnType::Double => decode_fixed(&mut r, count).map(ColumnData::Double),
        ColumnType::String => decode_str(&mut r, count).map(ColumnData::Str),
    }
}

/// The chunk's dictionary and codes, or `None` past [`DICT_SIZE_LIMIT`].
fn try_dict<V: Value>(values: &[V]) -> Option<(Vec<V>, Vec<u32>)> {
    let mut map: HashMap<V::Bits, u32> = HashMap::new();
    let mut dict = Vec::new();
    let mut codes = Vec::with_capacity(values.len());
    for &v in values {
        let next = wire_u32(dict.len());
        let code = *map.entry(v.to_bits()).or_insert_with(|| {
            dict.push(v);
            next
        });
        if dict.len() > DICT_SIZE_LIMIT {
            return None; // fallback to plain, exactly like Parquet
        }
        codes.push(code);
    }
    Some((dict, codes))
}

/// Dictionary chunks are written when they hold fewer than half as many
/// entries as the chunk has values.
fn dict_pays(dict_len: usize, values: usize) -> bool {
    dict_len * 2 < values.max(1)
}

fn write_indices(codes: &[u32], dict_len: usize, out: &mut Vec<u8>) {
    // lint: allow(cast) bit width of a usize is at most 64
    let width = (usize::BITS - dict_len.saturating_sub(1).leading_zeros()) as u8;
    out.put_u8(width);
    let mut idx = Vec::new();
    hybrid::encode(codes, width, &mut idx);
    out.put_u32(wire_u32(idx.len()));
    out.extend_from_slice(&idx);
}

/// Reads the dictionary codes; each must name one of the `dict_len` entries.
fn read_indices(r: &mut Reader<'_>, count: usize, dict_len: usize) -> Result<Vec<u32>> {
    let width = r.u8()?;
    let idx_len = r.u32()? as usize;
    let codes = hybrid::decode(r.take(idx_len)?, count, width)?;
    if codes.iter().any(|&c| c as usize >= dict_len) {
        return Err(Error::Corrupt("dict index out of range"));
    }
    Ok(codes)
}

fn encode_fixed<V: Value>(values: &[V], out: &mut Vec<u8>) {
    let dict = try_dict(values).filter(|(d, _)| dict_pays(d.len(), values.len()));
    if let Some((dict, codes)) = dict {
        out.put_u8(ENC_DICT);
        out.put_u32(wire_u32(dict.len()));
        V::put_slice(&dict, out);
        write_indices(&codes, dict.len(), out);
    } else {
        out.put_u8(ENC_PLAIN);
        V::put_slice(values, out);
    }
}

fn decode_fixed<V: Value>(r: &mut Reader<'_>, count: usize) -> Result<Vec<V>> {
    let mut out = Vec::new();
    match r.u8()? {
        ENC_PLAIN => r.vec_into(count, &mut out)?,
        ENC_DICT => {
            let mut dict: Vec<V> = Vec::new();
            let dict_len = r.u32()? as usize;
            r.vec_into(dict_len, &mut dict)?;
            let codes = read_indices(r, count, dict_len)?;
            // read_indices checked every code against dict_len.
            out.extend(codes.iter().map(|&c| dict.get(c as usize).copied().unwrap_or_default()));
        }
        _ => return Err(Error::Corrupt("unknown chunk encoding")),
    }
    Ok(out)
}

fn put_strs<'a>(strs: impl Iterator<Item = &'a [u8]>, out: &mut Vec<u8>) {
    for s in strs {
        out.put_u32(wire_u32(s.len()));
        out.extend_from_slice(s);
    }
}

fn read_strs(r: &mut Reader<'_>, count: usize) -> Result<StringArena> {
    let mut arena = StringArena::new();
    for _ in 0..count {
        let len = r.u32()? as usize;
        arena.push(r.take(len)?);
    }
    Ok(arena)
}

fn encode_str(arena: &StringArena, out: &mut Vec<u8>) {
    // Dictionary attempt with both entry-count and byte limits.
    let mut map: HashMap<&[u8], u32> = HashMap::new();
    let mut dict = StringArena::new();
    let mut codes = Vec::with_capacity(arena.len());
    let mut ok = true;
    for s in arena.iter() {
        let next = wire_u32(dict.len());
        let code = *map.entry(s).or_insert_with(|| {
            dict.push(s);
            next
        });
        if dict.len() > DICT_SIZE_LIMIT || dict.total_bytes() > DICT_BYTES_LIMIT {
            ok = false;
            break;
        }
        codes.push(code);
    }
    if ok && dict_pays(dict.len(), arena.len()) {
        out.put_u8(ENC_DICT);
        out.put_u32(wire_u32(dict.len()));
        put_strs(dict.iter(), out);
        write_indices(&codes, dict.len(), out);
    } else {
        out.put_u8(ENC_PLAIN);
        put_strs(arena.iter(), out);
    }
}

fn decode_str(r: &mut Reader<'_>, count: usize) -> Result<StringArena> {
    match r.u8()? {
        ENC_PLAIN => read_strs(r, count),
        ENC_DICT => {
            let dict_len = r.u32()? as usize;
            let dict = read_strs(r, dict_len)?;
            let codes = read_indices(r, count, dict.len())?;
            let mut arena = StringArena::new();
            for &c in &codes {
                arena.push(dict.get(c as usize));
            }
            Ok(arena)
        }
        _ => Err(Error::Corrupt("unknown chunk encoding")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: ColumnData) {
        let mut buf = Vec::new();
        encode_chunk(&data, &mut buf);
        let back = decode_chunk(&buf, data.len(), data.column_type()).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn int_dict_and_plain() {
        roundtrip(ColumnData::Int((0..1000).map(|i| i % 10).collect())); // dict
        roundtrip(ColumnData::Int((0..1000).collect())); // plain (all unique)
        roundtrip(ColumnData::Int(vec![]));
    }

    #[test]
    fn double_dict_and_plain_bitwise() {
        roundtrip(ColumnData::Double((0..1000).map(|i| (i % 7) as f64).collect()));
        let tricky = vec![0.0, -0.0, f64::NAN, 1.5];
        let mut buf = Vec::new();
        encode_chunk(&ColumnData::Double(tricky.clone()), &mut buf);
        match decode_chunk(&buf, 4, ColumnType::Double).unwrap() {
            ColumnData::Double(out) => {
                assert!(tricky.iter().zip(&out).all(|(a, b)| a.to_bits() == b.to_bits()));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn string_dict_and_plain() {
        let repeated: Vec<String> = (0..500).map(|i| format!("v{}", i % 5)).collect();
        let refs: Vec<&str> = repeated.iter().map(|s| s.as_str()).collect();
        roundtrip(ColumnData::Str(StringArena::from_strs(&refs)));
        let unique: Vec<String> = (0..500).map(|i| format!("unique-{i}")).collect();
        let refs: Vec<&str> = unique.iter().map(|s| s.as_str()).collect();
        roundtrip(ColumnData::Str(StringArena::from_strs(&refs)));
    }

    #[test]
    fn dict_fallback_on_high_cardinality() {
        // All-unique ints must take the plain branch.
        let values: Vec<i32> = (0..2000).collect();
        let mut buf = Vec::new();
        encode_chunk(&ColumnData::Int(values), &mut buf);
        assert_eq!(buf[0], ENC_PLAIN);
    }

    #[test]
    fn dict_used_on_low_cardinality() {
        let values: Vec<i32> = (0..2000).map(|i| i % 4).collect();
        let mut buf = Vec::new();
        encode_chunk(&ColumnData::Int(values.clone()), &mut buf);
        assert_eq!(buf[0], ENC_DICT);
        assert!(buf.len() < values.len() * 4 / 4, "dict chunk should be small");
    }

    #[test]
    fn truncated_chunks_error() {
        let mut buf = Vec::new();
        encode_chunk(&ColumnData::Int((0..100).map(|i| i % 3).collect()), &mut buf);
        assert!(decode_chunk(&buf[..buf.len() - 1], 100, ColumnType::Integer).is_err());
        assert!(decode_chunk(&[], 1, ColumnType::Integer).is_err());
    }
}
