//! Run-length encoding for integers, with cascading children.
//!
//! Payload: `[run_count: u32][child block: run values][child block: run
//! lengths]`. Both children are full framed blocks compressed by recursive
//! scheme selection (paper Listing 1's two `pickScheme` calls).
//! Decompression uses the vectorized splat-store kernel of §5.

use crate::config::Config;
use crate::scheme;
use crate::scratch::{DecodeScratch, EncodeScratch};
use crate::simd;
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};

/// Splits `values` into `(run_values, run_lengths)` in caller-owned buffers
/// (cleared first), so the encode path can lease the run arrays instead of
/// allocating per block.
pub fn runs_of_into(values: &[i32], run_values: &mut Vec<i32>, run_lengths: &mut Vec<i32>) {
    run_values.clear();
    run_lengths.clear();
    for &v in values {
        match run_values.last() {
            Some(&last) if last == v => *run_lengths.last_mut().expect("parallel arrays") += 1,
            _ => {
                run_values.push(v);
                run_lengths.push(1);
            }
        }
    }
}

/// Compresses `values` as RLE with cascaded children, leasing the run arrays
/// from `scratch`.
pub fn compress(
    values: &[i32],
    child_depth: u8,
    cfg: &Config,
    scratch: &mut EncodeScratch,
    out: &mut Vec<u8>,
) {
    let mut run_values = scratch.lease_i32(values.len());
    let mut run_lengths = scratch.lease_i32(values.len());
    runs_of_into(values, &mut run_values, &mut run_lengths);
    // lint: allow(cast) encode side: run count fits u32
    out.put_u32(run_values.len() as u32);
    scheme::compress_int_into(&run_values, child_depth, cfg, scratch, out, None);
    scheme::compress_int_into(&run_lengths, child_depth, cfg, scratch, out, None);
    scratch.release_i32(run_values);
    scratch.release_i32(run_lengths);
}

/// Reads and validates an RLE payload's run arrays — the one parser shared
/// by decode, the compressed-domain filter, the aggregate fold, and the fused
/// RLE+Dict string path. On success `run_values` and `lengths` both hold
/// exactly the stored run count, and the lengths sum to `count`; anything
/// else (including a negative length) is [`Error::Corrupt`].
pub fn read_runs_into(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &mut DecodeScratch,
    run_values: &mut Vec<i32>,
    lengths: &mut Vec<u32>,
) -> Result<()> {
    let run_count = r.u32()? as usize;
    // Capacity hint only — the cascade fills to whatever the child frame
    // says. Clamp so a hostile run_count can't force a huge lease.
    let mut run_lengths = scratch.lease_i32(run_count.min(count));
    let result = (|| -> Result<()> {
        scheme::decompress_int_into(r, cfg, scratch, run_values)?;
        scheme::decompress_int_into(r, cfg, scratch, &mut run_lengths)?;
        check_runs(run_values.len(), &run_lengths, run_count, count, lengths)
    })();
    scratch.release_i32(run_lengths);
    result
}

/// The validation half of [`read_runs_into`], shared with the double variant:
/// both arrays hold `run_count` entries, no length is negative, and the
/// lengths (converted into `lengths`) sum to `count`.
pub(crate) fn check_runs(
    value_count: usize,
    run_lengths: &[i32],
    run_count: usize,
    count: usize,
    lengths: &mut Vec<u32>,
) -> Result<()> {
    if value_count != run_count || run_lengths.len() != run_count {
        return Err(Error::Corrupt("RLE run array length mismatch"));
    }
    let mut total = 0usize;
    lengths.clear();
    for &l in run_lengths {
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
/// arrays from `scratch` and returning them on every exit path.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &mut DecodeScratch,
    out: &mut Vec<i32>,
) -> Result<()> {
    // Uncapped peek of the run count, clamped, purely as a capacity hint.
    let hint = r.clone().u32().map_or(0, |n| (n as usize).min(count));
    let mut run_values = scratch.lease_i32(hint);
    let mut lengths = scratch.lease_u32(hint);
    let result = read_runs_into(r, count, cfg, scratch, &mut run_values, &mut lengths);
    if result.is_ok() {
        simd::rle_decode_i32_into(&run_values, &lengths, count, cfg.simd, out);
    }
    scratch.release_i32(run_values);
    scratch.release_u32(lengths);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::testutil::{decode_int, encode_int, roundtrip_int};
    use crate::scheme::SchemeCode;

    #[test]
    fn roundtrip_runs() {
        roundtrip_int(SchemeCode::Rle, &[5, 5, 5, 1, 1, 9, 9, 9, 9]);
        roundtrip_int(SchemeCode::Rle, &[7; 1000]);
        roundtrip_int(SchemeCode::Rle, &(0..100).collect::<Vec<_>>()); // worst case: all runs of 1
    }

    #[test]
    fn runs_of_splits_correctly() {
        let (mut v, mut l) = (Vec::new(), Vec::new());
        runs_of_into(&[3, 3, 8, 8, 8, 1], &mut v, &mut l);
        assert_eq!(v, vec![3, 8, 1]);
        assert_eq!(l, vec![2, 3, 1]);
        runs_of_into(&[], &mut v, &mut l);
        assert!(v.is_empty() && l.is_empty());
    }

    #[test]
    fn compresses_long_runs_well() {
        let values: Vec<i32> = (0..64_000).map(|i| i / 1000).collect();
        let size = roundtrip_int(SchemeCode::Rle, &values);
        assert!(size * 50 < values.len() * 4, "got {size} bytes");
    }

    #[test]
    fn corrupt_total_is_error() {
        let cfg = Config::default();
        let mut tampered = encode_int(SchemeCode::Rle, &[1, 1, 2], &cfg);
        assert_eq!(tampered[0], SchemeCode::Rle as u8);
        // Lie about the count in the frame.
        tampered[1..5].copy_from_slice(&10u32.to_le_bytes());
        assert_eq!(
            decode_int(&tampered, &cfg).unwrap_err(),
            Error::Corrupt("RLE total length mismatch")
        );
    }
}
