//! Run-length encoding with cascading children (runs compare by
//! [`Value::to_bits`], so NaN runs and `-0.0` vs `0.0` behave losslessly).
//!
//! Payload: `[run_count: u32][child block: run values (V)][child block: run
//! lengths (integer)]` — the structure of the paper's cascading example in
//! §3.2. Both children are full framed blocks compressed by recursive scheme
//! selection (Listing 1's two `pickScheme` calls). Decompression uses the
//! vectorized splat-store kernel of §5.

use super::Value;
use crate::config::Config;
use crate::scheme;
use crate::scratch::Scratch;
use crate::simd;
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};

/// Splits `values` into `(run_values, run_lengths)` in caller-owned buffers
/// (cleared first), so the encode path can lease the run arrays instead of
/// allocating per block.
pub fn runs_of_into<V: Value>(values: &[V], run_values: &mut Vec<V>, run_lengths: &mut Vec<i32>) {
    run_values.clear();
    run_lengths.clear();
    for &v in values {
        match run_values.last() {
            Some(last) if last.to_bits() == v.to_bits() => {
                *run_lengths.last_mut().expect("parallel arrays") += 1;
            }
            _ => {
                run_values.push(v);
                run_lengths.push(1);
            }
        }
    }
}

/// Compresses `values` as RLE with cascaded children, leasing the run arrays
/// from `scratch`.
pub fn compress<V: Value>(
    values: &[V],
    child_depth: u8,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut Vec<u8>,
) {
    let mut run_values = scratch.lease::<Vec<V>>(values.len());
    let mut run_lengths = scratch.lease::<Vec<i32>>(values.len());
    runs_of_into(values, &mut run_values, &mut run_lengths);
    // lint: allow(cast) encode side: run count fits u32
    out.put_u32(run_values.len() as u32);
    scheme::compress_into(&run_values, child_depth, cfg, scratch, out, None, None);
    scheme::compress_into(&run_lengths, child_depth, cfg, scratch, out, None, None);
}

/// Reads and validates an RLE payload's run arrays — the one parser shared
/// by decode, the compressed-domain filter, the aggregate fold, and the fused
/// RLE+Dict string path. On success `run_values` and `lengths` both hold
/// exactly the stored run count, and the lengths sum to `count`; anything
/// else (including a negative length) is [`Error::Corrupt`].
pub fn read_runs_into<V: Value>(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &Scratch,
    run_values: &mut Vec<V>,
    lengths: &mut Vec<u32>,
) -> Result<()> {
    let run_count = r.u32()? as usize;
    // Capacity hint only — the cascade fills to whatever the child frame
    // says. Clamp so a hostile run_count can't force a huge lease.
    let mut run_lengths = scratch.lease::<Vec<i32>>(run_count.min(count));
    scheme::decompress_into(r, cfg, scratch, run_values)?;
    scheme::decompress_into(r, cfg, scratch, &mut run_lengths)?;
    if run_values.len() != run_count || run_lengths.len() != run_count {
        return Err(Error::Corrupt("RLE run array length mismatch"));
    }
    let mut total = 0usize;
    lengths.clear();
    for &l in run_lengths.iter() {
        let len = u32::try_from(l).map_err(|_| Error::Corrupt("negative RLE run length"))?;
        total += len as usize;
        lengths.push(len);
    }
    if total != count {
        return Err(Error::Corrupt("RLE total length mismatch"));
    }
    Ok(())
}

/// Decompresses an RLE block of `count` values into `out`, leasing the run
/// arrays from `scratch`.
pub fn decompress_into<V: Value>(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut Vec<V>,
) -> Result<()> {
    // Uncapped peek of the run count, clamped, purely as a capacity hint.
    let hint = r.clone().u32().map_or(0, |n| (n as usize).min(count));
    let mut run_values = scratch.lease::<Vec<V>>(hint);
    let mut lengths = scratch.lease::<Vec<u32>>(hint);
    read_runs_into(r, count, cfg, scratch, &mut run_values, &mut lengths)?;
    simd::rle_decode_into(&run_values, &lengths, count, cfg.simd, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::testmatrix::{
        for_both_types, roundtrips_hostile_shapes, truncation_is_an_error, Hostile,
    };
    use super::*;
    use crate::scheme::testutil::{decode, encode, roundtrip};
    use crate::scheme::SchemeCode;

    /// An RLE frame claiming `count` values under a stored run count of
    /// `run_count`, with uncompressed `run_values` / `run_lengths` children.
    fn frame<V: Value>(
        count: u32,
        run_count: u32,
        run_values: &[V],
        run_lengths: &[i32],
    ) -> Vec<u8> {
        let cfg = Config::default();
        let mut buf = vec![SchemeCode::Rle.as_u8()];
        buf.put_u32(count);
        buf.put_u32(run_count);
        buf.extend(encode(SchemeCode::Uncompressed, run_values, &cfg));
        buf.extend(encode(SchemeCode::Uncompressed, run_lengths, &cfg));
        buf
    }

    fn matrix<V: Hostile>() {
        roundtrips_hostile_shapes::<V>(SchemeCode::Rle);
        truncation_is_an_error::<V>(SchemeCode::Rle);
        let cfg = Config::default();
        let [a, b, c] = [V::HOSTILE[0], V::HOSTILE[1], V::HOSTILE[2]];

        let (mut v, mut l) = (Vec::new(), Vec::new());
        runs_of_into(&[a, a, b, b, b, c], &mut v, &mut l);
        assert_eq!(
            v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            [a, b, c].map(V::to_bits)
        );
        assert_eq!(l, vec![2, 3, 1]);
        runs_of_into::<V>(&[], &mut v, &mut l);
        assert!(v.is_empty() && l.is_empty());

        // Worst case (all runs of 1) still round-trips; long runs shrink.
        roundtrip(SchemeCode::Rle, &V::HOSTILE, &cfg);
        let long: Vec<V> = (0..64_000).map(|i| V::HOSTILE[(i / 8_000) % 8]).collect();
        let size = roundtrip(SchemeCode::Rle, &long, &cfg);
        assert!(size * 50 < long.len() * V::SIZE, "got {size} bytes");

        // The decoder's three run-array checks, each with its own message.
        let err = |bytes: Vec<u8>| decode::<V>(&bytes, &cfg).unwrap_err();
        assert_eq!(
            err(frame(3, 3, &[a, b], &[2, 1])),
            Error::Corrupt("RLE run array length mismatch")
        );
        assert_eq!(
            err(frame(3, 2, &[a, b], &[2])),
            Error::Corrupt("RLE run array length mismatch")
        );
        assert_eq!(
            err(frame(3, 2, &[a, b], &[4, -1])),
            Error::Corrupt("negative RLE run length")
        );
        assert_eq!(
            err(frame(4, 2, &[a, b], &[2, 1])),
            Error::Corrupt("RLE total length mismatch")
        );
        // And through a real frame: lie about the count in the header.
        let mut tampered = encode(SchemeCode::Rle, &[a, a, b], &cfg);
        tampered[1..5].copy_from_slice(&10u32.to_le_bytes());
        assert_eq!(err(tampered), Error::Corrupt("RLE total length mismatch"));
    }

    for_both_types!(matrix);
}
