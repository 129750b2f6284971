//! FastPFOR integer scheme: frame-of-reference + patched bit-packing.
//!
//! Payload: `[base: i32][word_count: u32][FastPFOR words]`. The FOR
//! transform subtracts the block minimum so the full `i32` range maps onto
//! `u32` offsets; the offsets go through the FastPFOR codec of
//! `btr-bitpacking`, whose per-128-block exception patching absorbs outliers.

use crate::config::Config;
use crate::scratch::Scratch;
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};
use btr_bitpacking::{fastpfor, for_delta};

/// Compresses `values` as FOR + FastPFOR, leasing the offset and
/// packed-word buffers from `scratch`.
pub fn compress_into(values: &[i32], scratch: &Scratch, out: &mut Vec<u8>) {
    let mut offsets = scratch.lease::<Vec<u32>>(values.len());
    let base = for_delta::for_encode_into(values, &mut offsets);
    let mut words = scratch.lease::<Vec<u32>>(2 + values.len() / 2);
    fastpfor::encode_into(&offsets, &mut words);
    out.put_i32(base);
    // lint: allow(cast) encode side: packed word count fits u32
    out.put_u32(words.len() as u32);
    out.put_u32_slice(&words);
}

/// Decompresses a FastPFOR block of `count` values into `out`, leasing the
/// packed-word and offset buffers from `scratch`.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    _cfg: &Config,
    scratch: &Scratch,
    out: &mut Vec<i32>,
) -> Result<()> {
    let base = r.i32()?;
    let word_count = r.u32()? as usize;
    // Capacity hint clamped to what the stream can actually supply, so a
    // hostile word_count can't force a huge lease before `take` rejects it.
    let mut words = scratch.lease::<Vec<u32>>(word_count.min(r.remaining() / 4 + 1));
    let mut offsets = scratch.lease::<Vec<u32>>(count);
    r.u32_vec_into(word_count, &mut words)?;
    // The stream's internal count must agree with the frame count (already
    // capped by `max_block_values`) before the codec sizes its output.
    if words.first().map(|&c| c as usize) != Some(count) && count > 0 {
        return Err(Error::Corrupt("FastPFOR count mismatch"));
    }
    fastpfor::decode_into(&words, &mut offsets)?;
    if offsets.len() != count {
        return Err(Error::Corrupt("FastPFOR count mismatch"));
    }
    out.clear();
    out.resize(count, 0);
    for_delta::for_decode_into(base, &offsets, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::config::Config;
    use crate::scheme::testutil::roundtrip;
    use crate::scheme::SchemeCode;

    #[test]
    fn roundtrip_narrow_range() {
        let values: Vec<i32> = (0..10_000).map(|i| 1_000_000 + (i % 100)).collect();
        let size = roundtrip(SchemeCode::FastPfor, &values, &Config::default());
        assert!(size * 3 < values.len() * 4, "got {size} bytes");
    }

    #[test]
    fn roundtrip_with_outliers() {
        let mut values: Vec<i32> = (0..2_000).map(|i| i % 50).collect();
        values[13] = i32::MAX;
        values[1500] = i32::MIN;
        roundtrip(SchemeCode::FastPfor, &values, &Config::default());
    }

    #[test]
    fn roundtrip_extremes_and_empty() {
        roundtrip(SchemeCode::FastPfor, &[i32::MIN, i32::MAX], &Config::default());
        roundtrip::<i32>(SchemeCode::FastPfor, &[], &Config::default());
        roundtrip(SchemeCode::FastPfor, &[0], &Config::default());
    }
}
