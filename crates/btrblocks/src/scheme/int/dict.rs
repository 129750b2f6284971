//! Dictionary encoding for integers, with a cascaded code sequence.
//!
//! Payload: `[dict_len: u32][dict values: dict_len × i32][child block: code
//! sequence]`. Codes are assigned in first-occurrence order; the code
//! sequence typically cascades into FastBP128 or RLE. Decompression uses the
//! AVX2 gather kernel of §5.

use crate::config::Config;
use crate::scheme;
use crate::scratch::{DecodeScratch, EncodeScratch};
use crate::simd;
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};
use crate::fxhash::FxHashMap;

/// Builds `(dictionary, codes)` in first-occurrence order into caller-owned
/// buffers (all cleared first), so the encode path can lease the map and both
/// arrays instead of allocating.
pub fn encode_dict_into(
    values: &[i32],
    map: &mut FxHashMap<i32, usize>,
    dict: &mut Vec<i32>,
    codes: &mut Vec<i32>,
) {
    map.clear();
    dict.clear();
    codes.clear();
    for &v in values {
        let idx = *map.entry(v).or_insert_with(|| {
            dict.push(v);
            dict.len() - 1
        });
        // lint: allow(cast) encode side: dictionary sizes fit i32
        codes.push(idx as i32);
    }
}

/// Compresses `values` as a dictionary with a cascaded code sequence,
/// leasing the dictionary map and side-arrays from `scratch`.
pub fn compress(
    values: &[i32],
    child_depth: u8,
    cfg: &Config,
    scratch: &mut EncodeScratch,
    out: &mut Vec<u8>,
) {
    let mut map = scratch.lease_int_map();
    let mut dict = scratch.lease_i32(values.len());
    let mut codes = scratch.lease_i32(values.len());
    encode_dict_into(values, &mut map, &mut dict, &mut codes);
    scratch.release_int_map(map);
    // lint: allow(cast) encode side: dictionary entry count fits u32
    out.put_u32(dict.len() as u32);
    out.put_i32_slice(&dict);
    scheme::compress_int_into(
        &codes,
        child_depth,
        cfg,
        scratch,
        out,
        Some(crate::scheme::SchemeCode::Dict),
    );
    scratch.release_i32(dict);
    scratch.release_i32(codes);
}

/// Decompresses a dictionary block of `count` values into `out`, leasing the
/// dictionary and code buffers from `scratch`.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &mut DecodeScratch,
    out: &mut Vec<i32>,
) -> Result<()> {
    let dict_len = r.u32()? as usize;
    let mut dict = scratch.lease_i32(dict_len.min(cfg.max_block_values));
    let mut codes = scratch.lease_i32(count);
    let mut codes_u32 = scratch.lease_u32(count);
    let result = (|| -> Result<()> {
        r.i32_vec_into(dict_len, &mut dict)?;
        scheme::decompress_int_into(r, cfg, scratch, &mut codes)?;
        if codes.len() != count {
            return Err(Error::Corrupt("dict code count mismatch"));
        }
        codes_u32.clear();
        for &c in codes.iter() {
            if c < 0 || c as usize >= dict_len {
                return Err(Error::Corrupt("dict code out of range"));
            }
            // lint: allow(cast) c was range-checked non-negative and < dict len above
            codes_u32.push(c as u32);
        }
        simd::dict_decode_i32_into(&codes_u32, &dict, cfg.simd, out);
        Ok(())
    })();
    scratch.release_i32(dict);
    scratch.release_i32(codes);
    scratch.release_u32(codes_u32);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::testutil::{decode_int, roundtrip_int};
    use crate::scheme::SchemeCode;

    #[test]
    fn roundtrip_low_cardinality() {
        let values: Vec<i32> = (0..10_000).map(|i| [1_000_000, -5, 0, 77][i % 4]).collect();
        roundtrip_int(SchemeCode::Dict, &values);
    }

    #[test]
    fn roundtrip_single_and_empty() {
        roundtrip_int(SchemeCode::Dict, &[42]);
        roundtrip_int(SchemeCode::Dict, &[]);
    }

    #[test]
    fn encode_dict_first_occurrence_order() {
        let (mut map, mut dict, mut codes) = (FxHashMap::default(), Vec::new(), Vec::new());
        encode_dict_into(&[9, 5, 9, 1, 5], &mut map, &mut dict, &mut codes);
        assert_eq!(dict, vec![9, 5, 1]);
        assert_eq!(codes, vec![0, 1, 0, 2, 1]);
    }

    #[test]
    fn low_cardinality_compresses_well() {
        let values: Vec<i32> = (0..64_000).map(|i| (i % 3) * 1_000_000).collect();
        let size = roundtrip_int(SchemeCode::Dict, &values);
        assert!(size * 8 < values.len() * 4, "got {size} bytes");
    }

    #[test]
    fn out_of_range_code_is_error() {
        // Hand-craft: dict of 1 entry, uncompressed codes [0, 1] (1 invalid).
        let mut buf = Vec::new();
        buf.put_u8(SchemeCode::Dict as u8);
        buf.put_u32(2);
        buf.put_u32(1);
        buf.put_i32(42);
        buf.put_u8(SchemeCode::Uncompressed as u8);
        buf.put_u32(2);
        buf.put_i32(0);
        buf.put_i32(1);
        assert_eq!(
            decode_int(&buf, &Config::default()).unwrap_err(),
            Error::Corrupt("dict code out of range")
        );
    }
}
