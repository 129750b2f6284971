//! FastBP128: vertical-layout bit-packing over 128-value blocks.
//!
//! This mirrors the SIMD-BP128 layout of Lemire & Boytsov: a block of 128
//! values is viewed as 32 rows of 4 lanes. Packing proceeds row by row, with
//! each lane independently accumulating bits into its own output stream slot;
//! packed data is emitted as groups of 4 words (one per lane). Because the
//! four lanes are processed in lock-step with identical control flow, LLVM
//! vectorizes the loops to 128-bit SIMD; an explicit AVX2/SSE path is not
//! required for competitive speed, but a `target_feature`-gated unpack exists
//! for the widths the selection algorithm uses most.
//!
//! The serialized stream for a full block at width `w` is exactly `4 * w`
//! `u32` words. Blocks shorter than 128 values fall back to [`crate::plain`].

use crate::simd::{unpack_into_with, SimdPref};
use crate::{plain, Error, Result, BLOCK128};

type Lanes = [u32; 4];

/// Callers pass a full 128-value block (asserted in [`pack_block`]) and
/// `row < 32`, so every lane index is in bounds.
#[inline(always)]
fn lanes_at(values: &[u32], row: usize) -> Lanes {
    [
        // lint: allow(indexing) row < 32 and values.len() == 128 (caller-asserted)
        values[row],
        // lint: allow(indexing) row < 32 and values.len() == 128 (caller-asserted)
        values[row + 32],
        // lint: allow(indexing) row < 32 and values.len() == 128 (caller-asserted)
        values[row + 64],
        // lint: allow(indexing) row < 32 and values.len() == 128 (caller-asserted)
        values[row + 96],
    ]
}

/// Packs exactly 128 values at bit width `width`, appending `4 * width` words
/// to `out`. Values wider than `width` bits are masked.
pub fn pack_block(values: &[u32], width: u8, out: &mut Vec<u32>) {
    assert_eq!(values.len(), BLOCK128, "pack_block requires a full block");
    assert!(width <= 32);
    if width == 0 {
        return;
    }
    let w = u32::from(width);
    let mask: u32 = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
    let mut acc: Lanes = [0; 4];
    let mut filled: u32 = 0;
    for row in 0..32 {
        let lanes = lanes_at(values, row);
        if filled + w <= 32 {
            for l in 0..4 {
                // lint: allow(indexing) l < 4 over [u32; 4] arrays
                acc[l] |= (lanes[l] & mask) << filled;
            }
            filled += w;
            if filled == 32 {
                out.extend_from_slice(&acc);
                acc = [0; 4];
                filled = 0;
            }
        } else {
            let lo = 32 - filled;
            for l in 0..4 {
                // lint: allow(indexing) l < 4 over [u32; 4] arrays
                acc[l] |= (lanes[l] & mask) << filled;
            }
            out.extend_from_slice(&acc);
            for l in 0..4 {
                // lint: allow(indexing) l < 4 over [u32; 4] arrays
                acc[l] = (lanes[l] & mask) >> lo;
            }
            filled = w - lo;
        }
    }
    if filled > 0 {
        out.extend_from_slice(&acc);
    }
}

/// Unpacks exactly 128 values at bit width `width` from the front of `packed`
/// into `out`, returning the number of input words consumed.
pub fn unpack_block(packed: &[u32], width: u8, out: &mut [u32]) -> Result<usize> {
    assert!(out.len() >= BLOCK128, "output must hold a full block");
    if width > 32 {
        return Err(Error::InvalidBitWidth(width));
    }
    if width == 0 {
        // lint: allow(indexing) out.len() >= BLOCK128 asserted at entry
        out[..BLOCK128].fill(0);
        return Ok(0);
    }
    let words = 4 * width as usize;
    if packed.len() < words {
        return Err(Error::UnexpectedEnd);
    }
    let w = u32::from(width);
    let mask: u32 = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
    let mut idx = 0usize;
    // lint: allow(indexing) packed.len() >= 4 * width >= 4 was checked above
    let mut cur: Lanes = [packed[0], packed[1], packed[2], packed[3]];
    idx += 4;
    let mut consumed: u32 = 0;
    for row in 0..32 {
        let mut lanes: Lanes = [0; 4];
        if consumed + w <= 32 {
            for l in 0..4 {
                // lint: allow(indexing) l < 4 over [u32; 4] arrays
                lanes[l] = (cur[l] >> consumed) & mask;
            }
            consumed += w;
            if consumed == 32 && row != 31 {
                // lint: allow(indexing) the stream holds exactly 4 * width words (checked at entry)
                cur = [packed[idx], packed[idx + 1], packed[idx + 2], packed[idx + 3]];
                idx += 4;
                consumed = 0;
            }
        } else {
            let lo = 32 - consumed;
            // lint: allow(indexing) the stream holds exactly 4 * width words (checked at entry)
            let next: Lanes = [packed[idx], packed[idx + 1], packed[idx + 2], packed[idx + 3]];
            idx += 4;
            for l in 0..4 {
                // lint: allow(indexing) l < 4 over [u32; 4] arrays
                lanes[l] = ((cur[l] >> consumed) | (next[l] << lo)) & mask;
            }
            cur = next;
            consumed = w - lo;
        }
        // lint: allow(indexing) row < 32 and out.len() >= 128 (asserted at entry)
        out[row] = lanes[0];
        // lint: allow(indexing) row < 32 and out.len() >= 128 (asserted at entry)
        out[row + 32] = lanes[1];
        // lint: allow(indexing) row < 32 and out.len() >= 128 (asserted at entry)
        out[row + 64] = lanes[2];
        // lint: allow(indexing) row < 32 and out.len() >= 128 (asserted at entry)
        out[row + 96] = lanes[3];
    }
    Ok(words)
}

/// Serialized FastBP128 stream: per-block bit widths followed by packed data.
///
/// Layout (all `u32` words):
/// ```text
/// [count][n_full_blocks bytes of widths, padded to words][block data...][tail width][tail data]
/// ```
pub fn encode(values: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(2 + values.len() / 2);
    encode_into(values, &mut out);
    out
}

/// [`encode`] appending into a caller-owned word buffer (not cleared) so the
/// encode path can lease and reuse it across blocks. Block widths are
/// computed in a first pass (the widths precede the packed data on the wire)
/// and recomputed per block in the second, avoiding a widths side-array.
pub fn encode_into(values: &[u32], out: &mut Vec<u32>) {
    let n = values.len();
    let full_blocks = n / BLOCK128;
    let tail = n % BLOCK128;
    // lint: allow(cast) encode side: block value count fits u32
    out.push(n as u32);
    // Pack widths 4-per-word.
    let mut wword = 0u32;
    for b in 0..full_blocks {
        // lint: allow(indexing) b < full_blocks = values.len() / 128
        let w = crate::max_bits(&values[b * BLOCK128..(b + 1) * BLOCK128]);
        wword |= u32::from(w) << ((b % 4) * 8);
        if b % 4 == 3 {
            out.push(wword);
            wword = 0;
        }
    }
    if !full_blocks.is_multiple_of(4) {
        out.push(wword);
    }
    for b in 0..full_blocks {
        // lint: allow(indexing) b < full_blocks = values.len() / 128
        let block = &values[b * BLOCK128..(b + 1) * BLOCK128];
        pack_block(block, crate::max_bits(block), out);
    }
    if tail > 0 {
        // lint: allow(indexing) full_blocks * 128 <= values.len() by construction
        let tail_values = &values[full_blocks * BLOCK128..];
        out.push(u32::from(crate::max_bits(tail_values)));
        plain::pack_into(tail_values, crate::max_bits(tail_values), out);
    }
}

/// Decodes a stream produced by [`encode`].
pub fn decode(data: &[u32]) -> Result<Vec<u32>> {
    let mut out = Vec::new();
    decode_into(data, &mut out)?;
    Ok(out)
}

/// Decodes a stream produced by [`encode`], appending to `out`.
pub fn decode_into(data: &[u32], out: &mut Vec<u32>) -> Result<()> {
    decode_into_with(data, out, SimdPref::Auto)
}

/// [`decode_into`] with the tail's unpack kernel picked by `pref`.
pub fn decode_into_with(data: &[u32], out: &mut Vec<u32>, pref: SimdPref) -> Result<()> {
    let &count = data.first().ok_or(Error::UnexpectedEnd)?;
    let n = count as usize;
    let full_blocks = n / BLOCK128;
    let tail = n % BLOCK128;
    let width_words = full_blocks.div_ceil(4);
    if data.len() < 1 + width_words {
        return Err(Error::UnexpectedEnd);
    }
    let start = out.len();
    out.resize(start + n, 0);
    let mut pos = 1 + width_words;
    for b in 0..full_blocks {
        // lint: allow(indexing) 1 + b/4 < 1 + width_words, checked against data.len() above
        // lint: allow(cast) masked to 8 bits
        let w = ((data[1 + b / 4] >> ((b % 4) * 8)) & 0xFF) as u8;
        let consumed =
            // lint: allow(indexing) pos <= data.len() inductively; out was resized to start + n
            unpack_block(&data[pos..], w, &mut out[start + b * BLOCK128..start + (b + 1) * BLOCK128])?;
        pos += consumed;
    }
    if tail > 0 {
        if data.len() < pos + 1 {
            return Err(Error::UnexpectedEnd);
        }
        // lint: allow(indexing) pos < data.len() was checked above
        let tw = data[pos];
        if tw > 32 {
            return Err(Error::Corrupt("tail width out of range"));
        }
        pos += 1;
        // lint: allow(indexing) pos <= data.len(); tw was range-checked; out holds start + n values
        // lint: allow(cast) tw was range-checked <= 32 above
        unpack_into_with(&data[pos..], tw as u8, &mut out[start + full_blocks * BLOCK128..], pref)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_block_all_widths() {
        let values: Vec<u32> = (0..128u32).map(|i| i.wrapping_mul(2654435761)).collect();
        for width in 0..=32u8 {
            let mask = if width == 32 { u32::MAX } else { (1u32 << width).wrapping_sub(1) };
            let mut packed = Vec::new();
            pack_block(&values, width, &mut packed);
            assert_eq!(packed.len(), 4 * width as usize);
            let mut out = vec![0u32; 128];
            let consumed = unpack_block(&packed, width, &mut out).unwrap();
            assert_eq!(consumed, packed.len());
            let expect: Vec<u32> = values.iter().map(|&v| v & mask).collect();
            assert_eq!(out, expect, "width {width}");
        }
    }

    #[test]
    fn encode_decode_various_lengths() {
        for n in [0usize, 1, 64, 127, 128, 129, 256, 1000, 4096] {
            let values: Vec<u32> = (0..n as u32).map(|i| i % 1024).collect();
            let enc = encode(&values);
            assert_eq!(decode(&enc).unwrap(), values, "n = {n}");
        }
    }

    #[test]
    fn encode_decode_mixed_widths_per_block() {
        let mut values = vec![0u32; 384];
        for (i, v) in values.iter_mut().enumerate() {
            *v = match i / 128 {
                0 => (i % 3) as u32,
                1 => u32::MAX - i as u32,
                _ => (i * 37 % 100) as u32,
            };
        }
        let enc = encode(&values);
        assert_eq!(decode(&enc).unwrap(), values);
    }

    #[test]
    fn decode_empty_stream_is_error() {
        assert_eq!(decode(&[]), Err(Error::UnexpectedEnd));
    }

    #[test]
    fn decode_truncated_is_error() {
        let enc = encode(&(0..300u32).collect::<Vec<_>>());
        assert!(decode(&enc[..enc.len() - 2]).is_err());
    }

    #[test]
    fn compresses_small_values() {
        let values: Vec<u32> = (0..1280).map(|i| i % 16).collect();
        let enc = encode(&values);
        // 4 bits per value -> roughly n/8 words plus metadata.
        assert!(enc.len() * 4 < values.len() * 4 / 4, "encoded {} words", enc.len());
    }
}
