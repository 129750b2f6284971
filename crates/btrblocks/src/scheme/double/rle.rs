//! Run-length encoding for doubles (runs compare by bit pattern).
//!
//! Payload: `[run_count: u32][child: run values (double)][child: run lengths
//! (integer)]` — the exact structure of the paper's cascading example in
//! §3.2. Decompression uses the 4-wide AVX2 splat-store kernel.

use crate::config::Config;
use crate::scheme;
use crate::scheme::int::rle::check_runs;
use crate::scratch::{DecodeScratch, EncodeScratch};
use crate::simd;
use crate::writer::{Reader, WriteLe};
use crate::Result;

/// Splits `values` into `(run_values, run_lengths)` comparing bit patterns
/// (so NaN runs and `-0.0` vs `0.0` behave losslessly), in caller-owned
/// buffers (cleared first) so the encode path can lease the run arrays.
pub fn runs_of_into(values: &[f64], run_values: &mut Vec<f64>, run_lengths: &mut Vec<i32>) {
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
pub fn compress(
    values: &[f64],
    child_depth: u8,
    cfg: &Config,
    scratch: &mut EncodeScratch,
    out: &mut Vec<u8>,
) {
    let mut run_values = scratch.lease_f64(values.len());
    let mut run_lengths = scratch.lease_i32(values.len());
    runs_of_into(values, &mut run_values, &mut run_lengths);
    // lint: allow(cast) encode side: run count fits u32
    out.put_u32(run_values.len() as u32);
    scheme::compress_double_into(&run_values, child_depth, cfg, scratch, out);
    scheme::compress_int_into(&run_lengths, child_depth, cfg, scratch, out, None);
    scratch.release_f64(run_values);
    scratch.release_i32(run_lengths);
}

/// Reads and validates a double RLE payload's run arrays (see
/// [`crate::scheme::int::rle::read_runs_into`], whose checks and errors this
/// shares): the one parser behind decode, filter, and fold.
pub fn read_runs_into(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &mut DecodeScratch,
    run_values: &mut Vec<f64>,
    lengths: &mut Vec<u32>,
) -> Result<()> {
    let run_count = r.u32()? as usize;
    // Capacity hint only — clamp so a hostile run_count can't force a huge
    // lease.
    let mut run_lengths = scratch.lease_i32(run_count.min(count));
    let result = (|| -> Result<()> {
        scheme::decompress_double_into(r, cfg, scratch, run_values)?;
        scheme::decompress_int_into(r, cfg, scratch, &mut run_lengths)?;
        check_runs(run_values.len(), &run_lengths, run_count, count, lengths)
    })();
    scratch.release_i32(run_lengths);
    result
}

/// Decompresses an RLE block of `count` doubles into `out`, leasing the run
/// arrays from `scratch` and returning them on every exit path.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &mut DecodeScratch,
    out: &mut Vec<f64>,
) -> Result<()> {
    // Uncapped peek of the run count, clamped, purely as a capacity hint.
    let hint = r.clone().u32().map_or(0, |n| (n as usize).min(count));
    let mut run_values = scratch.lease_f64(hint);
    let mut lengths = scratch.lease_u32(hint);
    let result = read_runs_into(r, count, cfg, scratch, &mut run_values, &mut lengths);
    if result.is_ok() {
        simd::rle_decode_f64_into(&run_values, &lengths, count, cfg.simd, out);
    }
    scratch.release_f64(run_values);
    scratch.release_u32(lengths);
    result
}

#[cfg(test)]
mod tests {
    use crate::config::Config;
    use crate::scheme::testutil::roundtrip_double;
    use crate::scheme::SchemeCode;

    fn roundtrip(values: &[f64]) {
        roundtrip_double(SchemeCode::Rle, values, &Config::default());
    }

    #[test]
    fn roundtrip_paper_example() {
        // The §3.2 worked example: [3.5, 3.5, 18, 18, 3.5, 3.5].
        roundtrip(&[3.5, 3.5, 18.0, 18.0, 3.5, 3.5]);
    }

    #[test]
    fn roundtrip_nan_runs() {
        roundtrip(&[f64::NAN, f64::NAN, 1.0, -0.0, -0.0, 0.0]);
    }

    #[test]
    fn roundtrip_long_runs() {
        let values: Vec<f64> = (0..64_000).map(|i| (i / 8000) as f64 * 0.5).collect();
        roundtrip(&values);
    }
}
