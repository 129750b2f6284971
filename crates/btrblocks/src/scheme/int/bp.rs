//! FastBP128 integer scheme: frame-of-reference + vertical bit-packing.
//!
//! Payload: `[base: i32][word_count: u32][FastBP128 words]`. Unlike
//! [`super::pfor`], there is no exception patching — every 128-value block is
//! packed at the width of its largest offset, which is faster to decode but
//! sensitive to outliers (exactly the trade-off the paper's scheme pool
//! exploits by offering both).

use crate::config::Config;
use crate::scratch::Scratch;
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};
use btr_bitpacking::{bp128, for_delta};

/// Compresses `values` as FOR + FastBP128, leasing the offset and
/// packed-word buffers from `scratch`.
pub fn compress_into(values: &[i32], scratch: &Scratch, out: &mut Vec<u8>) {
    let mut offsets = scratch.lease::<Vec<u32>>(values.len());
    let base = for_delta::for_encode_into(values, &mut offsets);
    let mut words = scratch.lease::<Vec<u32>>(2 + values.len() / 2);
    bp128::encode_into(&offsets, &mut words);
    out.put_i32(base);
    // lint: allow(cast) encode side: packed word count fits u32
    out.put_u32(words.len() as u32);
    out.put_u32_slice(&words);
}

/// Decompresses a FastBP128 block of `count` values into `out`, leasing the
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
        return Err(Error::Corrupt("FastBP128 count mismatch"));
    }
    bp128::decode_into(&words, &mut offsets)?;
    if offsets.len() != count {
        return Err(Error::Corrupt("FastBP128 count mismatch"));
    }
    out.clear();
    out.resize(count, 0);
    for_delta::for_decode_into(base, &offsets, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::config::Config;
    use crate::scheme::testutil::{encode, roundtrip};
    use crate::scheme::SchemeCode;

    #[test]
    fn roundtrip_small_values() {
        let values: Vec<i32> = (0..12_800).map(|i| i % 16).collect();
        let size = roundtrip(SchemeCode::FastBp128, &values, &Config::default());
        // 4-bit packing => ~8x smaller.
        assert!(size * 6 < values.len() * 4, "got {size} bytes");
    }

    #[test]
    fn roundtrip_negative_and_extremes() {
        roundtrip(SchemeCode::FastBp128, &[-5, -4, -3, 0, 100], &Config::default());
        roundtrip(SchemeCode::FastBp128, &[i32::MIN, i32::MAX, 0], &Config::default());
        roundtrip::<i32>(SchemeCode::FastBp128, &[], &Config::default());
    }

    #[test]
    fn outlier_hurts_bp_more_than_pfor() {
        let cfg = Config::default();
        let mut values: Vec<i32> = (0..12_800).map(|i| i % 16).collect();
        for i in (0..values.len()).step_by(128) {
            values[i] = i32::MAX;
        }
        let bp = encode(SchemeCode::FastBp128, &values, &cfg).len();
        let pfor = encode(SchemeCode::FastPfor, &values, &cfg).len();
        assert!(pfor * 2 < bp, "pfor {pfor} vs bp {bp}");
    }
}
