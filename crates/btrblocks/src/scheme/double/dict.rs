//! Dictionary encoding for doubles (keys compare by bit pattern).
//!
//! Payload: `[dict_len: u32][dict: dict_len × f64][child: code sequence]`.
//! Decompression uses the 4-wide AVX2 gather kernel.

use crate::config::Config;
use crate::scheme;
use crate::scratch::{DecodeScratch, EncodeScratch};
use crate::simd;
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};
use crate::fxhash::FxHashMap;

/// Builds `(dictionary, codes)` in first-occurrence order, keyed by bits,
/// into caller-owned buffers (all cleared first) so the encode path can lease
/// the map and both arrays instead of allocating.
pub fn encode_dict_into(
    values: &[f64],
    map: &mut FxHashMap<u64, usize>,
    dict: &mut Vec<f64>,
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
pub fn compress(
    values: &[f64],
    child_depth: u8,
    cfg: &Config,
    scratch: &mut EncodeScratch,
    out: &mut Vec<u8>,
) {
    let mut map = scratch.lease_bits_map();
    let mut dict = scratch.lease_f64(values.len());
    let mut codes = scratch.lease_i32(values.len());
    encode_dict_into(values, &mut map, &mut dict, &mut codes);
    scratch.release_bits_map(map);
    // lint: allow(cast) encode side: dictionary entry count fits u32
    out.put_u32(dict.len() as u32);
    out.put_f64_slice(&dict);
    scheme::compress_int_into(
        &codes,
        child_depth,
        cfg,
        scratch,
        out,
        Some(crate::scheme::SchemeCode::Dict),
    );
    scratch.release_f64(dict);
    scratch.release_i32(codes);
}

/// Decompresses a dictionary block of `count` doubles into `out`, leasing
/// the dictionary and code buffers from `scratch`.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &mut DecodeScratch,
    out: &mut Vec<f64>,
) -> Result<()> {
    let dict_len = r.u32()? as usize;
    let mut dict = scratch.lease_f64(dict_len.min(cfg.max_block_values));
    let mut codes = scratch.lease_i32(count);
    let mut codes_u32 = scratch.lease_u32(count);
    let result = (|| -> Result<()> {
        r.f64_vec_into(dict_len, &mut dict)?;
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
        simd::dict_decode_f64_into(&codes_u32, &dict, cfg.simd, out);
        Ok(())
    })();
    scratch.release_f64(dict);
    scratch.release_i32(codes);
    scratch.release_u32(codes_u32);
    result
}

#[cfg(test)]
mod tests {
    use crate::config::Config;
    use crate::scheme::testutil::roundtrip_double;
    use crate::scheme::SchemeCode;

    fn roundtrip(values: &[f64]) {
        roundtrip_double(SchemeCode::Dict, values, &Config::default());
    }

    #[test]
    fn roundtrip_low_cardinality() {
        let values: Vec<f64> = (0..10_000)
            .map(|i| [0.0, 83.2833, 3.05, 9.5999][i % 4])
            .collect();
        roundtrip(&values);
    }

    #[test]
    fn distinguishes_zero_signs_and_nans() {
        roundtrip(&[0.0, -0.0, f64::NAN, 0.0, -0.0]);
    }

    #[test]
    fn roundtrip_empty_and_single() {
        roundtrip(&[]);
        roundtrip(&[1.5]);
    }
}
