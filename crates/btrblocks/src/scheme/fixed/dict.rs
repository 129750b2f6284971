//! Dictionary encoding with a cascaded code sequence (keys compare by
//! [`Value::to_bits`]).
//!
//! Payload: `[dict_len: u32][dict values: dict_len × V][child block: code
//! sequence (integer)]`. Codes are assigned in first-occurrence order; the
//! code sequence typically cascades into FastBP128 or RLE. Decompression
//! uses the AVX2 gather kernel of §5.

use super::Value;
use crate::config::Config;
use crate::fxhash::FxHashMap;
use crate::scheme::{self, SchemeCode};
use crate::scratch::Scratch;
use crate::simd;
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};

/// Builds `(dictionary, codes)` in first-occurrence order into caller-owned
/// buffers (all cleared first), so the encode path can lease the map and both
/// arrays instead of allocating.
pub fn encode_dict_into<V: Value>(
    values: &[V],
    map: &mut FxHashMap<V::Bits, usize>,
    dict: &mut Vec<V>,
    codes: &mut Vec<i32>,
) {
    map.clear();
    dict.clear();
    codes.clear();
    for &v in values {
        let idx = *map.entry(v.to_bits()).or_insert_with(|| {
            dict.push(v);
            dict.len() - 1
        });
        // lint: allow(cast) encode side: dictionary sizes fit i32
        codes.push(idx as i32);
    }
}

/// Compresses `values` as a dictionary with a cascaded code sequence,
/// leasing the dictionary map and side-arrays from `scratch`.
pub fn compress<V: Value>(
    values: &[V],
    child_depth: u8,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut Vec<u8>,
) {
    let mut map = scratch.lease::<FxHashMap<V::Bits, usize>>(0);
    let mut dict = scratch.lease::<Vec<V>>(values.len());
    let mut codes = scratch.lease::<Vec<i32>>(values.len());
    encode_dict_into(values, &mut map, &mut dict, &mut codes);
    // Back to the pool before the code sequence's own selection leases one.
    drop(map);
    // lint: allow(cast) encode side: dictionary entry count fits u32
    out.put_u32(dict.len() as u32);
    V::put_slice(&dict, out);
    // The code sequence must not pick Dictionary again (see `compress_into`).
    scheme::compress_into(
        &codes,
        child_depth,
        cfg,
        scratch,
        out,
        Some(SchemeCode::Dict),
    );
}

/// Decompresses a dictionary block of `count` values into `out`, leasing the
/// dictionary and code buffers from `scratch`.
pub fn decompress_into<V: Value>(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut Vec<V>,
) -> Result<()> {
    let dict_len = r.u32()? as usize;
    let mut dict = scratch.lease::<Vec<V>>(dict_len.min(cfg.max_block_values));
    let mut codes = scratch.lease::<Vec<i32>>(count);
    let mut codes_u32 = scratch.lease::<Vec<u32>>(count);
    r.vec_into(dict_len, &mut dict)?;
    scheme::decompress_into(r, cfg, scratch, &mut codes)?;
    if codes.len() != count {
        return Err(Error::Corrupt("dict code count mismatch"));
    }
    for &c in codes.iter() {
        if c < 0 || c as usize >= dict_len {
            return Err(Error::Corrupt("dict code out of range"));
        }
        // lint: allow(cast) c was range-checked non-negative and < dict len above
        codes_u32.push(c as u32);
    }
    simd::dict_decode_into(&codes_u32, &dict, cfg.simd, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::testmatrix::{
        for_both_types, roundtrips_hostile_shapes, truncation_is_an_error, Hostile,
    };
    use super::*;
    use crate::scheme::testutil::{decode, encode, roundtrip};

    fn matrix<V: Hostile>() {
        roundtrips_hostile_shapes::<V>(SchemeCode::Dict);
        truncation_is_an_error::<V>(SchemeCode::Dict);
        let cfg = Config::default();
        let [a, b, c] = [V::HOSTILE[0], V::HOSTILE[1], V::HOSTILE[2]];

        let (mut map, mut dict, mut codes) = (FxHashMap::default(), Vec::new(), Vec::new());
        encode_dict_into(&[c, b, c, a, b], &mut map, &mut dict, &mut codes);
        assert_eq!(
            dict.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            [c, b, a].map(V::to_bits)
        );
        assert_eq!(codes, vec![0, 1, 0, 2, 1]);

        let low: Vec<V> = (0..64_000).map(|i| V::HOSTILE[i % 3]).collect();
        let size = roundtrip(SchemeCode::Dict, &low, &cfg);
        assert!(size * 8 < low.len() * V::SIZE, "got {size} bytes");

        // Hand-craft: 2 values, dict of 1 entry, uncompressed `codes`.
        let frame = |codes: &[i32]| {
            let mut buf = vec![SchemeCode::Dict.as_u8()];
            buf.put_u32(2);
            buf.put_u32(1);
            V::put_slice(&[a], &mut buf);
            buf.extend(encode(SchemeCode::Uncompressed, codes, &cfg));
            decode::<V>(&buf, &cfg).unwrap_err()
        };
        assert_eq!(frame(&[0, 1]), Error::Corrupt("dict code out of range"));
        assert_eq!(frame(&[0, -1]), Error::Corrupt("dict code out of range"));
        assert_eq!(frame(&[0]), Error::Corrupt("dict code count mismatch"));
    }

    for_both_types!(matrix);

    #[test]
    fn distinguishes_zero_signs_and_nans() {
        let values = [0.0, -0.0, f64::NAN, 0.0, -0.0];
        let (mut map, mut dict, mut codes) = (FxHashMap::default(), Vec::new(), Vec::new());
        encode_dict_into(&values, &mut map, &mut dict, &mut codes);
        assert_eq!(codes, vec![0, 1, 2, 0, 1]);
        roundtrip(SchemeCode::Dict, &values, &Config::default());
    }
}
