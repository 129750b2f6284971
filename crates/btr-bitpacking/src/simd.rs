//! AVX2 horizontal bit-unpacking.
//!
//! The [`crate::plain`] layout is a single LSB-first contiguous bitstream:
//! value `i` occupies bits `[i*w, (i+1)*w)` of the packed words. That makes
//! it a byte-addressable format — value `i` always lives inside the 8-byte
//! window starting at byte `i*w/8`, shifted by `i*w % 8` bits (with
//! `w <= 32`, `shift + w <= 7 + 32 <= 64` always fits the window). The AVX2
//! kernel gathers four such 64-bit windows at once (`vpgatherqq`, scale 1),
//! shifts each lane by its in-window bit offset (`vpsrlvq`), masks to the
//! width, and narrows the four results to `u32`s.
//!
//! Values near the end of the stream whose 8-byte window would overrun the
//! packed buffer fall back to the scalar word/offset loop — the same code
//! [`SimdPref::Scalar`] forces for the §6.8-style ablation.
//!
//! [`crate::bp128`] and [`crate::fastpfor`] unpack their tails (and
//! FastPFOR its exception side arrays) through [`unpack_into_with`] at the
//! preference their `decode_into_with` was given; `decode_into` is `Auto`.

use crate::{Error, Result};

/// Scalar/SIMD dispatch preference for unpacking (mirrors btrblocks'
/// `SimdMode` without a dependency edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPref {
    /// Use AVX2 when the CPU has it.
    Auto,
    /// Always take the scalar path (ablation / oracle testing).
    Scalar,
}

/// Runtime AVX2 detection (cached by the standard library).
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Unpacks `out.len()` values at bit width `width` from `packed` into `out`,
/// with explicit scalar/SIMD dispatch. [`crate::plain::unpack_into`] is the
/// `Auto` entry point.
pub fn unpack_into_with(
    packed: &[u32],
    width: u8,
    out: &mut [u32],
    pref: SimdPref,
) -> Result<()> {
    if width > 32 {
        return Err(Error::InvalidBitWidth(width));
    }
    if width == 0 {
        out.fill(0);
        return Ok(());
    }
    let needed = (out.len() * width as usize).div_ceil(32);
    if packed.len() < needed {
        return Err(Error::UnexpectedEnd);
    }
    #[cfg(target_arch = "x86_64")]
    if pref == SimdPref::Auto && avx2_available() {
        // SAFETY: AVX2 presence checked; width is 1..=32 and packed holds
        // every bit of the out.len() values (validated above), which is the
        // whole contract of `unpack_avx2`.
        unsafe { unpack_avx2(packed, width, out) };
        return Ok(());
    }
    let _ = pref;
    unpack_scalar(packed, width, out, 0);
    Ok(())
}

/// The scalar word/offset unpack loop starting at value index `from`.
/// Callers must have validated `1 <= width <= 32` and the packed length.
fn unpack_scalar(packed: &[u32], width: u8, out: &mut [u32], from: usize) {
    let w = width as usize;
    let mask: u64 = if width == 32 { u64::from(u32::MAX) } else { (1u64 << width) - 1 };
    let mut bitpos = from * w;
    // lint: allow(indexing) from <= out.len() by construction at both call sites
    for slot in out[from..].iter_mut() {
        let word = bitpos / 32;
        let off = bitpos % 32;
        // lint: allow(indexing) packed holds ceil(out.len() * w / 32) words (validated by caller)
        let mut v = u64::from(packed[word]) >> off;
        if off + w > 32 {
            // lint: allow(indexing) a straddling value implies word + 1 is still in bounds
            v |= u64::from(packed[word + 1]) << (32 - off);
        }
        // lint: allow(cast) masked to the packing width (<= 32 bits)
        *slot = (v & mask) as u32;
        bitpos += w;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available; `1 <= width <= 32`; `packed` must
// hold at least `ceil(out.len() * width / 32)` words. Each gather lane reads
// the 8 bytes at byte offset `i*width/8`, and the loop bound (`safe`) keeps
// every such window inside `packed`; the remaining values use the scalar
// tail. Stores are 16-byte writes at `out[i..i+4]` with `i + 4 <= safe <=
// out.len()`.
unsafe fn unpack_avx2(packed: &[u32], width: u8, out: &mut [u32]) {
    use std::arch::x86_64::*;
    let w = width as usize;
    let n = out.len();
    let bytes = packed.len() * 4;
    // Largest prefix of values whose 8-byte gather window fits in `packed`:
    // value i reads bytes [i*w/8, i*w/8 + 8), so we need i*w/8 <= bytes - 8,
    // i.e. i <= ((bytes - 8) * 8 + 7) / w.
    let safe = if bytes < 8 { 0 } else { (((bytes - 8) * 8 + 7) / w + 1).min(n) };
    let base = packed.as_ptr() as *const i64;
    let mask64: u64 = if width == 32 { u64::from(u32::MAX) } else { (1u64 << width) - 1 };
    let vmask = _mm256_set1_epi64x(mask64 as i64);
    // Lane k of each masked u64 holds the value in its low 32 bits; pick
    // dwords 0, 2, 4, 6 to narrow to four u32s.
    let narrow = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    let mut i = 0usize;
    while i + 4 <= safe {
        let b0 = i * w;
        let (b1, b2, b3) = (b0 + w, b0 + 2 * w, b0 + 3 * w);
        let offs = _mm256_set_epi64x(
            (b3 >> 3) as i64,
            (b2 >> 3) as i64,
            (b1 >> 3) as i64,
            (b0 >> 3) as i64,
        );
        let shifts = _mm256_set_epi64x(
            (b3 & 7) as i64,
            (b2 & 7) as i64,
            (b1 & 7) as i64,
            (b0 & 7) as i64,
        );
        // Scale-1 gather: `offs` are *byte* offsets from `base`.
        let windows = _mm256_i64gather_epi64::<1>(base, offs);
        let vals = _mm256_and_si256(_mm256_srlv_epi64(windows, shifts), vmask);
        let packed32 = _mm256_permutevar8x32_epi32(vals, narrow);
        _mm_storeu_si128(out.as_mut_ptr().add(i) as *mut __m128i, _mm256_castsi256_si128(packed32));
        i += 4;
    }
    unpack_scalar(packed, width, out, i);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plain;

    fn prefs() -> [SimdPref; 2] {
        [SimdPref::Auto, SimdPref::Scalar]
    }

    #[test]
    fn simd_matches_scalar_all_widths_and_tails() {
        // Oracle: for every width and a spread of lengths (hitting the
        // gather body, the window-overrun cutoff, and the scalar tail), the
        // AVX2 and scalar paths must agree bit-for-bit.
        let values: Vec<u32> =
            (0..200u64).map(|i| (i.wrapping_mul(2654435761) % (1 << 31)) as u32).collect();
        for width in 1..=32u8 {
            for n in [0usize, 1, 3, 4, 5, 7, 8, 31, 32, 33, 100, 200] {
                let vals = &values[..n];
                let packed = plain::pack(vals, width);
                let mask = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
                let expect: Vec<u32> = vals.iter().map(|&v| v & mask).collect();
                for pref in prefs() {
                    let mut out = vec![0xAAAA_AAAA; n]; // dirty out
                    unpack_into_with(&packed, width, &mut out, pref).unwrap();
                    assert_eq!(out, expect, "width {width} n {n} pref {pref:?}");
                }
            }
        }
    }

    #[test]
    fn zero_width_fills_zero_on_both_paths() {
        for pref in prefs() {
            let mut out = vec![7u32; 9];
            unpack_into_with(&[], 0, &mut out, pref).unwrap();
            assert_eq!(out, vec![0; 9]);
        }
    }

    #[test]
    fn errors_match_scalar_path() {
        for pref in prefs() {
            let packed = plain::pack(&[1, 2, 3, 4, 5, 6, 7, 8], 13);
            let mut out = vec![0u32; 8];
            assert_eq!(
                unpack_into_with(&packed[..1], 13, &mut out, pref),
                Err(Error::UnexpectedEnd)
            );
            assert_eq!(
                unpack_into_with(&packed, 33, &mut out, pref),
                Err(Error::InvalidBitWidth(33))
            );
        }
    }

    #[test]
    fn exact_buffer_no_overread() {
        // A packed buffer with zero spare words: the gather windows of the
        // last few values overrun it, so they must come from the scalar
        // tail. 32 values at width 1 = exactly one word.
        for pref in prefs() {
            let vals: Vec<u32> = (0..32).map(|i| i & 1).collect();
            let packed = plain::pack(&vals, 1);
            assert_eq!(packed.len(), 1);
            let mut out = vec![0u32; 32];
            unpack_into_with(&packed, 1, &mut out, pref).unwrap();
            assert_eq!(out, vals);
        }
    }
}
