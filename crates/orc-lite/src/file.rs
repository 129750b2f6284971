//! ORC's per-column streams in parquet-lite's container
//! ([`parquet_lite::file`]): stripes are its groups, streams its chunks, and
//! the magic is `ORCL`.
//!
//! Per-column stream contents:
//! * Integer — RLEv2-style stream ([`crate::rle2`]).
//! * Double — raw IEEE 754 little-endian (as in real ORC).
//! * String — `[1][dict_len u32][dict strings][codes RLEv2]` when
//!   `distinct/total ≤ dictionary_key_size_threshold`, else
//!   `[0][strings]`; strings are `[len_stream_len u32][lengths RLEv2][bytes]`.

use crate::{rle2, Error, Result};
use btr_lz::Codec;
use btrblocks::writer::{Reader, WriteLe};
use btrblocks::{Column, ColumnData, ColumnType, Relation, StringArena};
use parquet_lite::file::{wire_u32, Format};
use std::collections::HashMap;

/// orc-lite: RLEv2 integers, raw doubles, threshold-gated string dictionaries.
pub(crate) const ORC: Format = Format {
    magic: *b"ORCL",
    decode: decode_stream,
};

/// Write-time options.
#[derive(Debug, Clone)]
pub struct WriteOptions {
    /// Rows per stripe.
    pub stripe_rows: usize,
    /// Keep a string dictionary only when `distinct/total` is at or below
    /// this (the paper uses Hive's default 0.8).
    pub dictionary_key_size_threshold: f64,
    /// General-purpose compression per stream.
    pub codec: Codec,
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions {
            stripe_rows: 1 << 17,
            dictionary_key_size_threshold: 0.8,
            codec: Codec::None,
        }
    }
}

/// Writes `rel` to an orc-lite file.
pub fn write(rel: &Relation, opts: &WriteOptions) -> Vec<u8> {
    ORC.write(rel, opts.stripe_rows, opts.codec, |data, out| {
        encode_stream(data, opts.dictionary_key_size_threshold, out)
    })
}

/// Reads the whole file back.
pub fn read(bytes: &[u8]) -> Result<Relation> {
    ORC.read(bytes)
}

/// Reads a single column across all stripes.
pub fn read_column(bytes: &[u8], column_index: usize) -> Result<Column> {
    ORC.read_column(bytes, column_index)
}

/// A length or code as an RLEv2 value.
fn wire_i32(n: usize) -> i32 {
    // lint: allow(cast) encode side: dictionaries and strings are far smaller than 2 GiB
    n as i32
}

/// `[len_stream_len u32][lengths RLEv2][bytes]`.
fn put_strings(arena: &StringArena, out: &mut Vec<u8>) {
    let lengths: Vec<i32> = arena.iter().map(|s| wire_i32(s.len())).collect();
    let len_stream = rle2::encode(&lengths);
    out.put_u32(wire_u32(len_stream.len()));
    out.extend_from_slice(&len_stream);
    out.extend_from_slice(&arena.bytes);
}

/// Reads `n` strings written by [`put_strings`], the bytes in one copy.
fn read_strings(r: &mut Reader<'_>, n: usize) -> Result<StringArena> {
    let len_stream_len = r.u32()? as usize;
    let lengths = rle2::decode(r.take(len_stream_len)?, n)?;
    let mut offsets = Vec::with_capacity(lengths.len() + 1);
    let mut end = 0u32;
    offsets.push(end);
    for len in lengths {
        end = u32::try_from(len)
            .ok()
            .and_then(|len| end.checked_add(len))
            .ok_or(Error::Corrupt("string length out of range"))?;
        offsets.push(end);
    }
    let bytes = r.take(end as usize)?.to_vec();
    Ok(StringArena { bytes, offsets })
}

fn encode_stream(data: &ColumnData, dictionary_key_size_threshold: f64, out: &mut Vec<u8>) {
    match data {
        ColumnData::Int(values) => out.extend_from_slice(&rle2::encode(values)),
        ColumnData::Double(values) => out.put_f64_slice(values),
        ColumnData::Str(arena) => {
            let mut map: HashMap<&[u8], i32> = HashMap::new();
            let mut dict = StringArena::new();
            let codes: Vec<i32> = (arena.iter())
                .map(|s| {
                    *map.entry(s).or_insert_with(|| {
                        dict.push(s);
                        wire_i32(dict.len() - 1)
                    })
                })
                .collect();
            let use_dict = !arena.is_empty()
                && (dict.len() as f64 / arena.len() as f64) <= dictionary_key_size_threshold;
            if use_dict {
                out.put_u8(1);
                out.put_u32(wire_u32(dict.len()));
                put_strings(&dict, out);
                out.extend_from_slice(&rle2::encode(&codes));
            } else {
                out.put_u8(0);
                put_strings(arena, out);
            }
        }
    }
}

fn decode_stream(buf: &[u8], count: usize, ty: ColumnType) -> Result<ColumnData> {
    let mut r = Reader::new(buf);
    Ok(match ty {
        ColumnType::Integer => ColumnData::Int(rle2::decode(buf, count)?),
        ColumnType::Double => {
            let mut values = Vec::new();
            r.vec_into(count, &mut values)?;
            ColumnData::Double(values)
        }
        ColumnType::String => ColumnData::Str(match r.u8()? {
            1 => {
                let dict_len = r.u32()? as usize;
                let dict = read_strings(&mut r, dict_len)?;
                let mut arena = StringArena::new();
                for code in rle2::decode(r.rest(), count)? {
                    let code = usize::try_from(code)
                        .ok()
                        .filter(|&c| c < dict.len())
                        .ok_or(Error::Corrupt("dict code out of range"))?;
                    arena.push(dict.get(code));
                }
                arena
            }
            0 => read_strings(&mut r, count)?,
            _ => return Err(Error::Corrupt("unknown string stream kind")),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize) -> Relation {
        let strings: Vec<String> = (0..rows).map(|i| format!("c{}", i % 25)).collect();
        let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
        Relation::new(vec![
            Column::new("a", ColumnData::Int((0..rows as i32).map(|i| i % 100).collect())),
            Column::new("b", ColumnData::Double((0..rows).map(|i| i as f64).collect())),
            Column::new("c", ColumnData::Str(StringArena::from_strs(&refs))),
        ])
    }

    #[test]
    fn roundtrip_multi_stripe() {
        let rel = sample(3_000);
        let opts = WriteOptions {
            stripe_rows: 1_000,
            ..WriteOptions::default()
        };
        let bytes = write(&rel, &opts);
        assert_eq!(ORC.read_meta(&bytes).unwrap().rowgroups.len(), 3);
        assert_eq!(read(&bytes).unwrap(), rel);
    }

    #[test]
    fn dictionary_threshold_respected() {
        // All-unique strings must take the direct path (threshold 0.8).
        let unique: Vec<String> = (0..1000).map(|i| format!("unique-{i}")).collect();
        let refs: Vec<&str> = unique.iter().map(|s| s.as_str()).collect();
        let rel = Relation::new(vec![Column::new("u", ColumnData::Str(StringArena::from_strs(&refs)))]);
        let bytes = write(&rel, &WriteOptions::default());
        assert_eq!(read(&bytes).unwrap(), rel);
        // With threshold 0 everything goes direct; with 1.0 everything dicts.
        for threshold in [0.0, 1.0] {
            let opts = WriteOptions {
                dictionary_key_size_threshold: threshold,
                ..WriteOptions::default()
            };
            assert_eq!(read(&write(&rel, &opts)).unwrap(), rel);
        }
    }

    #[test]
    fn single_column_projection() {
        let rel = sample(2_000);
        let bytes = write(&rel, &WriteOptions::default());
        let col = read_column(&bytes, 2).unwrap();
        assert_eq!(col, rel.columns[2]);
    }

    #[test]
    fn empty_and_corrupt() {
        let rel = Relation::new(vec![Column::new("x", ColumnData::Double(Vec::new()))]);
        let bytes = write(&rel, &WriteOptions::default());
        assert_eq!(read(&bytes).unwrap(), rel);
        assert!(read(&bytes[..bytes.len() - 2]).is_err());
        assert!(read(b"nope").is_err());
    }
}
