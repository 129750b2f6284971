//! Dictionary encoding for strings, with copy-free decode and the fused
//! RLE+Dict fast path (paper §5).
//!
//! Payload: `[dict_n: u32][pool_len: u32][dict pool bytes][dict offsets:
//! (dict_n + 1) × u32][child block: code sequence]`. Codes are in
//! first-occurrence order; the dictionary, the codes and the codes'
//! statistics all come from the block's one statistics pass
//! (`stats::Pass`), so encoding hashes no string a second time.
//!
//! Decompression never copies string bytes: each code becomes a fixed-size
//! 64-bit `(offset, len)` view into the dictionary pool, gathered with AVX2.
//! When the code sequence was itself RLE-compressed and runs are long enough
//! (average > `FUSED_RLE_DICT_MIN_RUN`), the two decode steps are fused:
//! the dictionary lookup happens per *run* and the view is splat-stored,
//! skipping the intermediate code array entirely.

use crate::config::Config;
use crate::scheme::fixed::rle;
use crate::scheme::{self, SchemeCode};
use crate::scratch::Scratch;
use crate::simd;
use crate::stats::Pass;
use crate::types::{StringArena, StringViews};
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};

/// Compresses a block as a dictionary with a cascaded code sequence: the
/// dictionary, the codes and the codes' statistics all come from the
/// block's [`Pass`], so no string or code is hashed again.
pub(crate) fn compress(
    pass: &Pass<'_, StringArena>,
    child_depth: u8,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut Vec<u8>,
) {
    // lint: allow(cast) encode side: dictionary entry count fits u32
    out.put_u32(pass.stats.unique_count as u32);
    // lint: allow(cast) encode side: dictionary pool is far smaller than 4 GiB
    out.put_u32(pass.stats.unique_bytes as u32);
    pass.dictionary().for_each(|s| out.extend_from_slice(s));
    out.put_u32(0);
    let mut end = 0u32;
    for s in pass.dictionary() {
        // lint: allow(cast) encode side: dictionary pool is far smaller than 4 GiB
        end += s.len() as u32;
        out.put_u32(end);
    }
    // The code sequence must not pick Dictionary again (see `compress_into`).
    let stats = Some(pass.code_stats());
    scheme::compress_into(&pass.codes, child_depth, cfg, scratch, out, Some(SchemeCode::Dict), stats);
}

/// Reads a serialized dictionary into reusable `pool`/`views` buffers,
/// leasing the offset temporary from `scratch`.
pub(crate) fn read_dict_into(
    r: &mut Reader<'_>,
    scratch: &Scratch,
    pool: &mut Vec<u8>,
    views: &mut Vec<u64>,
) -> Result<()> {
    let dict_n = r.u32()? as usize;
    let pool_len = r.u32()? as usize;
    let pool_bytes = r.take(pool_len)?;
    pool.clear();
    pool.extend_from_slice(pool_bytes);
    let mut offsets = scratch.lease::<Vec<u32>>(dict_n.min(r.remaining() / 4) + 1);
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
}

/// Average run length of an RLE code child above which decoding fuses the
/// two steps (paper §5: 3.0).
const FUSED_RLE_DICT_MIN_RUN: f64 = 3.0;

/// Decodes a cascaded code sequence into views, fusing RLE+Dict when the
/// child block is RLE with long runs. Decodes into `out` with scratch-leased
/// temporaries (the fused path's run arrays, the generic path's code arrays).
pub(crate) fn decode_codes_to_views_into(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    dict_views: &[u64],
    scratch: &Scratch,
    out: &mut Vec<u64>,
) -> Result<()> {
    // Peek the child frame to detect the RLE fusion opportunity.
    let mut peek = r.clone();
    let (child_code, child_count) = scheme::read_frame_header(&mut peek, cfg)?;
    let run_count = if child_code == SchemeCode::Rle && child_count == count {
        peek.clone().u32()? as usize
    } else {
        0
    };
    if run_count > 0 && count as f64 / run_count as f64 > FUSED_RLE_DICT_MIN_RUN {
        let hint = run_count.min(count);
        let mut run_codes = scratch.lease::<Vec<i32>>(hint);
        let mut run_views = scratch.lease::<Vec<u64>>(hint);
        let mut lengths = scratch.lease::<Vec<u32>>(hint);
        rle::read_runs_into(&mut peek, count, cfg, scratch, &mut run_codes, &mut lengths)?;
        // Dictionary lookup per run, then splat-store the views.
        for &code in run_codes.iter() {
            let view = usize::try_from(code).ok().and_then(|c| dict_views.get(c));
            run_views.push(*view.ok_or(Error::Corrupt("string dict code out of range"))?);
        }
        *r = peek;
        simd::rle_decode_into(&run_views, &lengths, count, cfg.simd, out);
    } else {
        gather_codes(r, count, cfg, dict_views, scratch, out)?;
    }
    // `count × longest entry` bounds the bytes the views materialize to;
    // only a block over that bound pays for the exact per-row sum.
    let len = |v: &u64| v & 0xFFFF_FFFF;
    let longest = dict_views.iter().map(len).max().unwrap_or(0);
    let limit = u64::from(u32::MAX);
    if (count as u64).saturating_mul(longest) > limit && out.iter().map(len).sum::<u64>() > limit {
        return Err(Error::LimitExceeded("string block materializes past u32 offsets"));
    }
    Ok(())
}

/// The unfused path: decode the code child, then gather one view per code.
fn gather_codes(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    dict_views: &[u64],
    scratch: &Scratch,
    out: &mut Vec<u64>,
) -> Result<()> {
    let mut codes = scratch.lease::<Vec<i32>>(count);
    let mut codes_u32 = scratch.lease::<Vec<u32>>(count);
    scheme::decompress_into(r, cfg, scratch, &mut codes)?;
    if codes.len() != count {
        return Err(Error::Corrupt("string dict code count mismatch"));
    }
    for &c in codes.iter() {
        if c < 0 || c as usize >= dict_views.len() {
            return Err(Error::Corrupt("string dict code out of range"));
        }
        // lint: allow(cast) c was range-checked non-negative and < dict len above
        codes_u32.push(c as u32);
    }
    simd::dict_decode_into(&codes_u32, dict_views, cfg.simd, out);
    Ok(())
}

/// Decompresses a dictionary block of `count` strings into `out`, reusing
/// its pool/view buffers and leasing the dictionary views from `scratch`.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut StringViews,
) -> Result<()> {
    // Peek the entry count for a sized lease (a 0-cap lease would grab the
    // largest pooled u64 buffer, starving the fused path's run views).
    let dict_n = r.clone().u32()? as usize;
    let mut dict_views = scratch.lease::<Vec<u64>>(dict_n.min(r.remaining() / 4));
    read_dict_into(r, scratch, &mut out.pool, &mut dict_views)?;
    decode_codes_to_views_into(r, count, cfg, &dict_views, scratch, &mut out.views)
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
        // The block decoder takes the fused path (runs of 100 > 3) ...
        let fused = decode_str(&buf, &cfg).unwrap();
        // ... and the unfused one, run directly on the same code child.
        let scratch = Scratch::new();
        let mut r = Reader::new(&buf);
        let (_, count) = scheme::read_frame_header(&mut r, &cfg).unwrap();
        let (mut plain, mut dict_views) = (StringViews::default(), Vec::new());
        read_dict_into(&mut r, &scratch, &mut plain.pool, &mut dict_views).unwrap();
        assert_eq!(scheme::read_frame_header(&mut r.clone(), &cfg).unwrap().0, SchemeCode::Rle);
        gather_codes(&mut r, count, &cfg, &dict_views, &scratch, &mut plain.views).unwrap();
        assert!(r.rest().is_empty());
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
