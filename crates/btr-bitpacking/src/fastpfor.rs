//! FastPFOR: patched frame-of-reference bit-packing.
//!
//! Plain bit-packing must use the width of the *largest* value, so a single
//! outlier inflates the whole block. Patched FOR (Zukowski et al.) instead
//! packs most values at a small width `b` and stores outliers ("exceptions")
//! separately. This module implements the FastPFOR variant of that idea:
//!
//! * values are processed in 128-value blocks,
//! * each block picks the cost-optimal width `b` by scanning the bit-width
//!   histogram,
//! * the low `b` bits of every value are packed with [`crate::bp128`],
//! * exception positions (one byte each) and the exceptions' *high* bits
//!   (packed at width `max_bits - b`) ride in per-block side arrays.
//!
//! The codec is unsigned; signed data should be FOR- or zigzag-transformed
//! first (see [`crate::for_delta`]).

use crate::simd::{unpack_into_with, SimdPref};
use crate::{bp128, plain, Error, Result, BLOCK128};

/// Per-block header: chosen width, max width, exception count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockHeader {
    width: u8,
    max_width: u8,
    exceptions: u8,
}

impl BlockHeader {
    fn to_word(self) -> u32 {
        u32::from(self.width) | u32::from(self.max_width) << 8 | u32::from(self.exceptions) << 16
    }

    fn from_word(w: u32) -> Self {
        BlockHeader {
            // lint: allow(cast) masked to 8 bits
            width: (w & 0xFF) as u8,
            // lint: allow(cast) masked to 8 bits
            max_width: ((w >> 8) & 0xFF) as u8,
            // lint: allow(cast) masked to 8 bits
            exceptions: ((w >> 16) & 0xFF) as u8,
        }
    }
}

/// Chooses the cost-optimal packing width for one block given its bit-width
/// histogram. Returns `(width, exception_count)`.
fn best_width(hist: &[u32; 33]) -> (u8, u32) {
    // lint: allow(indexing) w ranges over 0..=32 against a [u32; 33] array
    let max_width = (0..=32).rev().find(|&w| hist[w] > 0).unwrap_or(0);
    let mut best_w = max_width;
    let mut exceptions_at_best = 0u32;
    // Cost in bits of packing everything at max_width, no exceptions.
    // lint: allow(cast) 128 * 32 fits u32 comfortably
    let mut best_cost = (BLOCK128 * max_width) as u32;
    let mut exc = 0u32;
    for w in (0..max_width).rev() {
        // lint: allow(indexing) w < max_width <= 32 against a [u32; 33] array
        exc += hist[w + 1];
        // Each exception costs its 8-bit position plus the packed high bits;
        // 32 bits of fixed overhead approximates the side-array alignment.
        // lint: allow(cast) widths are <= 32, so all terms fit u32
        let cost = (BLOCK128 * w) as u32 + exc * (8 + (max_width - w) as u32) + 32;
        if cost < best_cost {
            best_cost = cost;
            best_w = w;
            exceptions_at_best = exc;
        }
    }
    // lint: allow(cast) best_w <= 32
    (best_w as u8, exceptions_at_best)
}

fn encode_block(values: &[u32], out: &mut Vec<u32>) {
    debug_assert_eq!(values.len(), BLOCK128);
    let mut hist = [0u32; 33];
    for &v in values {
        // lint: allow(indexing) bits_needed returns 0..=32 against a [u32; 33] array
        hist[crate::bits_needed(v) as usize] += 1;
    }
    let (width, _) = best_width(&hist);
    let max_width = crate::max_bits(values);
    // Stack buffers: a block holds 128 values, so there are at most 128
    // exceptions. Keeping the side arrays off the heap makes encode
    // allocation-free (mirrors decode_block's stack side arrays).
    let mut positions = [0u32; BLOCK128];
    let mut high_bits = [0u32; BLOCK128];
    let mut n_exc = 0usize;
    if width < max_width {
        for (i, &v) in values.iter().enumerate() {
            if crate::bits_needed(v) > width {
                // lint: allow(indexing) n_exc < 128 = values.len() bounds both stack arrays
                // lint: allow(cast) encode side: block-relative position < 128
                positions[n_exc] = i as u32;
                // lint: allow(indexing) n_exc < 128 = values.len() bounds both stack arrays
                high_bits[n_exc] = v >> width;
                n_exc += 1;
            }
        }
    }
    debug_assert!(n_exc < 256, "at most 128 exceptions per block");
    let header = BlockHeader {
        width,
        max_width,
        // lint: allow(cast) at most 128 exceptions per block (debug-asserted above)
        exceptions: n_exc as u8,
    };
    out.push(header.to_word());
    bp128::pack_block(values, width, out);
    if n_exc > 0 {
        // lint: allow(indexing) n_exc <= 128 bounds both stack arrays
        plain::pack_into(&positions[..n_exc], 7, out);
        // lint: allow(indexing) n_exc <= 128 bounds both stack arrays
        plain::pack_into(&high_bits[..n_exc], max_width - width, out);
    }
}

fn decode_block(data: &[u32], out: &mut [u32], pref: SimdPref) -> Result<usize> {
    let &hword = data.first().ok_or(Error::UnexpectedEnd)?;
    let header = BlockHeader::from_word(hword);
    if header.width > 32 || header.max_width > 32 || header.width > header.max_width {
        return Err(Error::Corrupt("bad FastPFOR block header"));
    }
    let mut pos = 1usize;
    // lint: allow(indexing) pos == 1 <= data.len() (non-emptiness checked above)
    pos += bp128::unpack_block(&data[pos..], header.width, out)?;
    let n_exc = header.exceptions as usize;
    if n_exc > 0 {
        let pos_words = plain::packed_words(n_exc, 7);
        let high_width = header.max_width - header.width;
        let high_words = plain::packed_words(n_exc, high_width);
        if data.len() < pos + pos_words + high_words {
            return Err(Error::UnexpectedEnd);
        }
        // Stack buffers: `exceptions` is a u8, so n_exc <= 255 always fits.
        // Keeping the side arrays off the heap makes decode allocation-free.
        let mut positions = [0u32; 256];
        let mut highs = [0u32; 256];
        // lint: allow(indexing) n_exc <= 255 < 256; pos + pos_words <= data.len() was checked above
        unpack_into_with(&data[pos..pos + pos_words], 7, &mut positions[..n_exc], pref)?;
        pos += pos_words;
        // lint: allow(indexing) n_exc <= 255 < 256; pos + high_words <= data.len() was checked above
        unpack_into_with(&data[pos..pos + high_words], high_width, &mut highs[..n_exc], pref)?;
        pos += high_words;
        // lint: allow(indexing) n_exc <= 255 < 256 bounds both slices
        for (&p, &h) in positions[..n_exc].iter().zip(&highs[..n_exc]) {
            let p = p as usize;
            if p >= BLOCK128 {
                return Err(Error::Corrupt("exception position out of range"));
            }
            // lint: allow(indexing) p was range-checked against BLOCK128; out holds a full block
            out[p] |= h << header.width;
        }
    }
    Ok(pos)
}

/// Encodes `values` into a FastPFOR stream.
///
/// Layout: `[count][block0][block1]...[tail width][tail plain-packed]` where
/// each block is `[header][4*width words][exception side arrays]`.
pub fn encode(values: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(2 + values.len() / 2);
    encode_into(values, &mut out);
    out
}

/// [`encode`] appending into a caller-owned word buffer (not cleared) so the
/// encode path can lease and reuse it across blocks.
pub fn encode_into(values: &[u32], out: &mut Vec<u32>) {
    let n = values.len();
    let full_blocks = n / BLOCK128;
    // lint: allow(cast) encode side: value count fits u32
    out.push(n as u32);
    for b in 0..full_blocks {
        // lint: allow(indexing) b < full_blocks = values.len() / 128
        encode_block(&values[b * BLOCK128..(b + 1) * BLOCK128], out);
    }
    // lint: allow(indexing) full_blocks * 128 <= values.len() by construction
    let tail = &values[full_blocks * BLOCK128..];
    if !tail.is_empty() {
        let tw = crate::max_bits(tail);
        out.push(u32::from(tw));
        plain::pack_into(tail, tw, out);
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

/// [`decode_into`] with the unpack kernel of the exception side arrays and
/// the tail picked by `pref`.
pub fn decode_into_with(data: &[u32], out: &mut Vec<u32>, pref: SimdPref) -> Result<()> {
    let &count = data.first().ok_or(Error::UnexpectedEnd)?;
    let n = count as usize;
    let full_blocks = n / BLOCK128;
    // Every full block consumes at least its header word and a non-empty
    // tail at least its width word: a count implying more blocks than there
    // are words is corrupt. Reject it *before* sizing the output — a stomped
    // count word must not turn into a multi-gigabyte zeroed allocation.
    let min_words = full_blocks + usize::from(!n.is_multiple_of(BLOCK128));
    if data.len().saturating_sub(1) < min_words {
        return Err(Error::UnexpectedEnd);
    }
    let start = out.len();
    out.resize(start + n, 0);
    let mut pos = 1usize;
    for b in 0..full_blocks {
        let consumed = decode_block(
            // lint: allow(indexing) pos <= data.len() inductively (decode_block consumes checked words)
            &data[pos..],
            // lint: allow(indexing) out was resized to start + n and b < full_blocks
            &mut out[start + b * BLOCK128..start + (b + 1) * BLOCK128],
            pref,
        )?;
        pos += consumed;
    }
    let tail = n % BLOCK128;
    if tail > 0 {
        if data.len() <= pos {
            return Err(Error::UnexpectedEnd);
        }
        // lint: allow(indexing) pos < data.len() was checked above
        let tw = data[pos];
        if tw > 32 {
            return Err(Error::Corrupt("tail width out of range"));
        }
        pos += 1;
        // lint: allow(indexing) pos <= data.len(); out holds start + n values
        // lint: allow(cast) tw was range-checked <= 32 above
        unpack_into_with(&data[pos..], tw as u8, &mut out[start + full_blocks * BLOCK128..], pref)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_uniform() {
        let values: Vec<u32> = (0..1000).map(|i| i % 50).collect();
        assert_eq!(decode(&encode(&values)).unwrap(), values);
    }

    #[test]
    fn roundtrip_with_outliers() {
        let mut values: Vec<u32> = (0..1280).map(|i| i % 16).collect();
        values[5] = u32::MAX;
        values[700] = 1 << 30;
        values[1279] = 123_456_789;
        assert_eq!(decode(&encode(&values)).unwrap(), values);
    }

    #[test]
    fn outliers_do_not_blow_up_size() {
        // 128 small values + 1 huge outlier per block should pack near 4 bits.
        let mut values: Vec<u32> = (0..12800).map(|i| i % 16).collect();
        for b in 0..100 {
            values[b * 128] = u32::MAX;
        }
        let pfor_size = encode(&values).len();
        let bp_size = bp128::encode(&values).len();
        assert!(
            pfor_size * 2 < bp_size,
            "FastPFOR ({pfor_size} words) should beat plain BP128 ({bp_size} words) on outlier data"
        );
    }

    #[test]
    fn roundtrip_various_lengths() {
        for n in [0usize, 1, 127, 128, 129, 300, 4096] {
            let values: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761) >> 16).collect();
            assert_eq!(decode(&encode(&values)).unwrap(), values, "n = {n}");
        }
    }

    #[test]
    fn roundtrip_all_max() {
        let values = vec![u32::MAX; 256];
        assert_eq!(decode(&encode(&values)).unwrap(), values);
    }

    #[test]
    fn decode_truncated_is_error() {
        let enc = encode(&(0..256u32).collect::<Vec<_>>());
        assert!(decode(&enc[..enc.len() - 1]).is_err());
        assert!(decode(&[]).is_err());
    }

    #[test]
    fn best_width_all_equal() {
        let mut hist = [0u32; 33];
        hist[4] = 128;
        let (w, exc) = best_width(&hist);
        assert_eq!(w, 4);
        assert_eq!(exc, 0);
    }

    #[test]
    fn best_width_with_outliers() {
        let mut hist = [0u32; 33];
        hist[4] = 126;
        hist[32] = 2;
        let (w, exc) = best_width(&hist);
        assert_eq!(w, 4);
        assert_eq!(exc, 2);
    }
}
