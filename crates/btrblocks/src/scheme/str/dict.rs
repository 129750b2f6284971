//! Dictionary encoding for strings, with copy-free decode and the fused
//! RLE+Dict fast path (paper §5).
//!
//! Payload: `[dict_n: u32][pool_len: u32][dict pool bytes][dict offsets:
//! (dict_n + 1) × u32][child block: code sequence]`.
//!
//! Decompression never copies string bytes: each code becomes a fixed-size
//! 64-bit `(offset, len)` view into the dictionary pool, gathered with AVX2.
//! When the code sequence was itself RLE-compressed and runs are long enough
//! (average > `cfg.fused_rle_dict_min_run`), the two decode steps are fused:
//! the dictionary lookup happens per *run* and the view is splat-stored,
//! skipping the intermediate code array entirely.

use crate::config::Config;
use crate::scheme::fixed::rle;
use crate::scheme::{self, SchemeCode};
use crate::scratch::{DecodeScratch, EncodeScratch};
use crate::simd;
use crate::types::{StringArena, StringViews};
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};
use crate::fxhash::FxHashMap;

/// Builds `(dictionary arena, codes)` in first-occurrence order into
/// caller-owned buffers (cleared first). The lookup map keys borrow from
/// `arena`, so it stays function-local — the one allocation the string
/// dictionary keeps on the encode path.
pub fn encode_dict_into(arena: &StringArena, dict: &mut StringArena, codes: &mut Vec<i32>) {
    let mut map: FxHashMap<&[u8], i32> =
        FxHashMap::with_capacity_and_hasher(arena.len() / 4 + 1, Default::default());
    dict.clear();
    codes.clear();
    for i in 0..arena.len() {
        let s = arena.get(i);
        let code = *map.entry(s).or_insert_with(|| {
            dict.push(s);
            // lint: allow(cast) encode side: dictionary sizes fit i32
            (dict.len() - 1) as i32
        });
        codes.push(code);
    }
}

/// Compresses `arena` as a dictionary with a cascaded code sequence, leasing
/// the dictionary arena and code array from `scratch`.
pub fn compress(
    arena: &StringArena,
    child_depth: u8,
    cfg: &Config,
    scratch: &mut EncodeScratch,
    out: &mut Vec<u8>,
) {
    let mut dict = scratch.lease_arena();
    let mut codes = scratch.lease_i32(arena.len());
    encode_dict_into(arena, &mut dict, &mut codes);
    write_dict(&dict, out);
    scheme::compress_into(&codes, child_depth, cfg, scratch, out, Some(SchemeCode::Dict));
    scratch.release_arena(dict);
    scratch.release_i32(codes);
}

pub(crate) fn write_dict(dict: &StringArena, out: &mut Vec<u8>) {
    // lint: allow(cast) encode side: dictionary entry count fits u32
    out.put_u32(dict.len() as u32);
    // lint: allow(cast) encode side: dictionary pool is far smaller than 4 GiB
    out.put_u32(dict.bytes.len() as u32);
    out.extend_from_slice(&dict.bytes);
    out.put_u32_slice(&dict.offsets);
}

/// Reads a serialized dictionary into reusable `pool`/`views` buffers,
/// leasing the offset temporary from `scratch`.
pub(crate) fn read_dict_into(
    r: &mut Reader<'_>,
    scratch: &mut DecodeScratch,
    pool: &mut Vec<u8>,
    views: &mut Vec<u64>,
) -> Result<()> {
    let dict_n = r.u32()? as usize;
    let pool_len = r.u32()? as usize;
    let pool_bytes = r.take(pool_len)?;
    pool.clear();
    pool.extend_from_slice(pool_bytes);
    let mut offsets = scratch.lease_u32(dict_n.min(r.remaining() / 4) + 1);
    let result = (|| -> Result<()> {
        r.u32_vec_into(dict_n + 1, &mut offsets)?;
        views.clear();
        views.reserve(dict_n);
        for w in offsets.windows(2) {
            // lint: allow(indexing) windows(2) yields exactly 2 elements
            if w[1] < w[0] || w[1] as usize > pool_len {
                return Err(Error::Corrupt("dict offsets not monotone"));
            }
            // lint: allow(indexing) windows(2) yields exactly 2 elements
            views.push(StringViews::pack(w[0], w[1] - w[0]));
        }
        Ok(())
    })();
    scratch.release_u32(offsets);
    result
}

/// Decodes a cascaded code sequence into views, fusing RLE+Dict when the
/// child block is RLE with long runs. Decodes into `out` with scratch-leased
/// temporaries (the fused path's run arrays, the generic path's code arrays).
pub(crate) fn decode_codes_to_views_into(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    dict_views: &[u64],
    scratch: &mut DecodeScratch,
    out: &mut Vec<u64>,
) -> Result<()> {
    // Peek the child frame to detect the RLE fusion opportunity.
    let mut peek = r.clone();
    let (child_code, child_count) = scheme::read_frame_header(&mut peek, cfg)?;
    if child_code == SchemeCode::Rle && child_count == count {
        let run_count = peek.clone().u32()? as usize;
        if run_count > 0 && count as f64 / run_count as f64 > cfg.fused_rle_dict_min_run {
            let hint = run_count.min(count);
            let mut run_codes = scratch.lease_i32(hint);
            let mut run_views = scratch.lease_u64(hint);
            let mut lengths = scratch.lease_u32(hint);
            let result = (|| -> Result<()> {
                rle::read_runs_into(&mut peek, count, cfg, scratch, &mut run_codes, &mut lengths)?;
                // Dictionary lookup per run, then splat-store the views.
                run_views.clear();
                for &code in run_codes.iter() {
                    let view = usize::try_from(code).ok().and_then(|c| dict_views.get(c));
                    run_views.push(*view.ok_or(Error::Corrupt("string dict code out of range"))?);
                }
                *r = peek;
                simd::rle_decode_into(&run_views, &lengths, count, cfg.simd, out);
                Ok(())
            })();
            scratch.release_i32(run_codes);
            scratch.release_u64(run_views);
            scratch.release_u32(lengths);
            return result;
        }
    }
    // Generic path: decode codes, then gather views.
    let mut codes = scratch.lease_i32(count);
    let mut codes_u32 = scratch.lease_u32(count);
    let result = (|| -> Result<()> {
        scheme::decompress_into(r, cfg, scratch, &mut codes)?;
        if codes.len() != count {
            return Err(Error::Corrupt("string dict code count mismatch"));
        }
        codes_u32.clear();
        for &c in codes.iter() {
            if c < 0 || c as usize >= dict_views.len() {
                return Err(Error::Corrupt("string dict code out of range"));
            }
            // lint: allow(cast) c was range-checked non-negative and < dict len above
            codes_u32.push(c as u32);
        }
        simd::dict_decode_into(&codes_u32, dict_views, cfg.simd, out);
        Ok(())
    })();
    scratch.release_i32(codes);
    scratch.release_u32(codes_u32);
    result
}

/// Decompresses a dictionary block of `count` strings into `out`, reusing
/// its pool/view buffers and leasing the dictionary views from `scratch`.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &mut DecodeScratch,
    out: &mut StringViews,
) -> Result<()> {
    // Peek the entry count for a sized lease (a 0-cap lease would grab the
    // largest pooled u64 buffer, starving the fused path's run views).
    let dict_n = r.clone().u32()? as usize;
    let mut dict_views = scratch.lease_u64(dict_n.min(r.remaining() / 4));
    let result = (|| -> Result<()> {
        read_dict_into(r, scratch, &mut out.pool, &mut dict_views)?;
        decode_codes_to_views_into(r, count, cfg, &dict_views, scratch, &mut out.views)
    })();
    scratch.release_u64(dict_views);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::testutil::{decode_str, encode_str, roundtrip_str};

    #[test]
    fn roundtrip_low_cardinality() {
        let strings: Vec<&str> = (0..1000)
            .map(|i| ["All Residential", "Condo", "Townhouse"][i % 3])
            .collect();
        roundtrip_str(SchemeCode::Dict, &strings);
    }

    #[test]
    fn roundtrip_with_long_runs_exercises_fusion() {
        // Long runs of equal values: the code child becomes RLE and the
        // fused path kicks in (avg run length 250 > 3).
        let strings: Vec<&str> = (0..1000)
            .map(|i| ["AAAA", "BBBB", "CCCC", "DDDD"][i / 250])
            .collect();
        roundtrip_str(SchemeCode::Dict, &strings);
    }

    #[test]
    fn fused_and_scalar_agree() {
        let strings: Vec<&str> = (0..2000).map(|i| ["x", "yy", "zzz"][(i / 100) % 3]).collect();
        let cfg = Config::default();
        let buf = encode_str(SchemeCode::Dict, &StringArena::from_strs(&strings), &cfg);
        // Fusion enabled (default threshold 3).
        let fused = decode_str(&buf, &cfg).unwrap();
        // Fusion disabled via an impossible threshold.
        let no_fuse = Config { fused_rle_dict_min_run: f64::INFINITY, ..Config::default() };
        let plain = decode_str(&buf, &no_fuse).unwrap();
        assert_eq!(fused.iter().collect::<Vec<_>>(), plain.iter().collect::<Vec<_>>());
    }

    #[test]
    fn roundtrip_empty_strings_and_unicode() {
        roundtrip_str(SchemeCode::Dict, &["", "", "Maceió", "", "Maceió", "東京"]);
    }

    #[test]
    fn dict_smaller_than_raw_on_repetition() {
        let strings = vec!["a rather long repeated string value"; 10_000];
        let size = roundtrip_str(SchemeCode::Dict, &strings);
        let raw = StringArena::from_strs(&strings).heap_size();
        assert!(size * 100 < raw, "got {size} bytes");
    }
}
