//! Pseudodecimal Encoding (paper §4) — the novel double scheme.
//!
//! Each double is decomposed into two integers: signed significant digits and
//! a decimal exponent, such that `digits × 10^-exp` reproduces the original
//! *bit pattern* exactly. `3.25` becomes `(325, 2)`; surprisingly, the double
//! closest to `0.99` (mantissa `0xfae147ae147ae`) also round-trips from
//! `(99, 2)` because encoding verifies `round(d / 10^-e) * 10^-e == d` with
//! the very multiplication decompression will perform.
//!
//! Values that cannot be represented — `-0.0`, ±Inf, NaN, digits beyond
//! 32 bits, or exponents beyond [`MAX_EXPONENT`] — are *patches*: their
//! positions go into a Roaring bitmap and their raw bits are stored
//! separately (the digit/exponent columns carry `(0, 23)` placeholders so the
//! cascaded integer columns stay aligned).
//!
//! Payload: `[bitmap_len: u32][roaring patch bitmap][child: digits
//! (integer)][child: exponents (integer)][patch_count: u32][patches: raw
//! f64]`.
//!
//! Decompression (§5) multiplies digits by a table of inverse powers of ten,
//! 4 values per AVX2 vector; any 4-window containing a patch position falls
//! back to a scalar loop that splices patch values in.

use crate::config::Config;
use crate::scheme;
use crate::scratch::Scratch;
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};
use btr_roaring::RoaringBitmap;

/// Largest decimal exponent tried (paper Listing 2: `max_exp = 22`).
pub const MAX_EXPONENT: u32 = 22;

/// Exponent placeholder marking a patched (non-encodable) position.
pub const EXCEPTION_EXPONENT: i32 = 23;

/// `FRAC10[e] == 10^-e`, the table both encode and decode multiply with.
/// Sharing one table is what makes the round-trip bitwise exact.
pub const FRAC10: [f64; 23] = [
    1.0, 0.1, 0.01, 0.001, 0.0001, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13,
    1e-14, 1e-15, 1e-16, 1e-17, 1e-18, 1e-19, 1e-20, 1e-21, 1e-22,
];

/// Tries to encode one double as `(digits, exponent)`; `None` means the value
/// must be stored as a patch. Mirrors Listing 2 of the paper.
#[inline]
pub fn encode_single(input: f64) -> Option<(i32, u8)> {
    if input == 0.0 && input.is_sign_negative() {
        return None; // -0.0: sign is folded into digits, which cannot hold it
    }
    if !input.is_finite() {
        return None; // ±Inf, NaN
    }
    for exp in 0..=MAX_EXPONENT {
        // lint: allow(indexing) exp <= MAX_EXPONENT = 22 < FRAC10.len() = 23
        let cd = input / FRAC10[exp as usize];
        let digits = cd.round();
        if digits.abs() > i32::MAX as f64 {
            // Larger exponents only grow the digits further.
            return None;
        }
        // lint: allow(indexing) exp <= MAX_EXPONENT = 22 < FRAC10.len() = 23
        let orig = digits * FRAC10[exp as usize];
        if orig.to_bits() == input.to_bits() {
            // lint: allow(cast) digits.abs() <= i32::MAX checked above; exp <= 22 fits u8
            return Some((digits as i32, exp as u8));
        }
    }
    None
}

/// Reconstructs a double from `(digits, exponent)`.
#[inline]
pub fn decode_single(digits: i32, exp: u8) -> f64 {
    // lint: allow(indexing) all callers validate exp <= 22 before decoding
    f64::from(digits) * FRAC10[usize::from(exp)]
}

/// Compresses `values` with Pseudodecimal Encoding, leasing the digit,
/// exponent, and patch arrays from `scratch`.
pub fn compress(
    values: &[f64],
    child_depth: u8,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut Vec<u8>,
) {
    let mut digits = scratch.lease::<Vec<i32>>(values.len());
    let mut exponents = scratch.lease::<Vec<i32>>(values.len());
    let mut patches = scratch.lease::<Vec<f64>>(values.len());
    let bitmap = RoaringBitmap::from_sorted_iter(values.iter().enumerate().filter_map(|(i, &v)| {
        match encode_single(v) {
            Some((d, e)) => {
                digits.push(d);
                exponents.push(i32::from(e));
                None
            }
            None => {
                digits.push(0);
                exponents.push(EXCEPTION_EXPONENT);
                patches.push(v);
                // lint: allow(cast) encode side; block row counts are bounded far below u32::MAX
                Some(i as u32)
            }
        }
    }));
    let bitmap_bytes = bitmap.serialize();
    // lint: allow(cast) encode side; serialized bitmap of one block fits u32
    out.put_u32(bitmap_bytes.len() as u32);
    out.extend_from_slice(&bitmap_bytes);
    scheme::compress_into(&digits, child_depth, cfg, scratch, out, None, None);
    scheme::compress_into(&exponents, child_depth, cfg, scratch, out, None, None);
    // lint: allow(cast) encode side; patches.len() <= block row count
    out.put_u32(patches.len() as u32);
    out.put_f64_slice(&patches);
}

/// Decompresses a Pseudodecimal block of `count` doubles into `out`, leasing
/// the digit/exponent/patch buffers from `scratch`. The Roaring patch bitmap
/// still deserializes into fresh containers — the one allocation this scheme
/// keeps.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut Vec<f64>,
) -> Result<()> {
    let bitmap_len = r.u32()? as usize;
    let bitmap = RoaringBitmap::deserialize(r.take(bitmap_len)?)?;
    let mut digits = scratch.lease::<Vec<i32>>(count);
    let mut exponents = scratch.lease::<Vec<i32>>(count);
    let mut patches = scratch.lease::<Vec<f64>>(0);
    scheme::decompress_into(r, cfg, scratch, &mut digits)?;
    scheme::decompress_into(r, cfg, scratch, &mut exponents)?;
    let patch_count = r.u32()? as usize;
    r.vec_into(patch_count, &mut patches)?;
    if digits.len() != count || exponents.len() != count {
        return Err(Error::Corrupt("pseudodecimal column length mismatch"));
    }
    if bitmap.cardinality() as usize != patch_count {
        return Err(Error::Corrupt("pseudodecimal patch count mismatch"));
    }
    let mut placeholder_count = 0usize;
    for &e in exponents.iter() {
        if !(0..=EXCEPTION_EXPONENT).contains(&e) {
            return Err(Error::Corrupt("pseudodecimal exponent out of range"));
        }
        if e == EXCEPTION_EXPONENT {
            placeholder_count += 1;
        }
    }
    if placeholder_count != patch_count {
        return Err(Error::Corrupt("pseudodecimal placeholder/patch mismatch"));
    }
    out.clear();
    out.reserve(count + crate::simd::DECODE_SLACK);
    #[cfg(target_arch = "x86_64")]
    if crate::simd::use_avx2(cfg.simd) && patch_count == 0 {
        // Fast path: no patches anywhere, vectorize the whole block.
        // SAFETY: exponents validated to 0..=23 above; FRAC10 is padded via
        // the gather table below; capacity reserved.
        unsafe {
            decode_avx2(&digits, &exponents, out.as_mut_ptr());
            out.set_len(count);
        }
        return Ok(());
    }
    decode_with_patches(&digits, &exponents, &bitmap, &patches, cfg, out)
}

/// Mixed path: vectorize 4-windows without patches, scalar for the rest.
fn decode_with_patches(
    digits: &[i32],
    exponents: &[i32],
    bitmap: &RoaringBitmap,
    patches: &[f64],
    cfg: &Config,
    out: &mut Vec<f64>,
) -> Result<()> {
    let count = digits.len();
    let mut patch_iter = patches.iter();
    let mut i = 0usize;
    #[cfg(target_arch = "x86_64")]
    let vectorize = crate::simd::use_avx2(cfg.simd);
    #[cfg(not(target_arch = "x86_64"))]
    let vectorize = false;
    let _ = cfg;
    while i < count {
        let window = (count - i).min(4);
        // lint: allow(cast) i < count = digits.len(), which decompress capped to the block size
        if vectorize && window == 4 && !bitmap.intersects_range(i as u32, 4) {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: window bounds checked; capacity reserved with slack.
            unsafe {
                // lint: allow(indexing) i + 4 <= count = digits.len() = exponents.len(), window == 4
                decode4_avx2(&digits[i..i + 4], &exponents[i..i + 4], out.as_mut_ptr().add(i));
                out.set_len(i + 4);
            }
            i += 4;
            continue;
        }
        for j in i..i + window {
            // lint: allow(cast) j < count, bounded by the block size
            if bitmap.contains(j as u32) {
                let &p = patch_iter
                    .next()
                    .ok_or(Error::Corrupt("pseudodecimal ran out of patches"))?;
                out.push(p);
            } else {
                // lint: allow(indexing) j < i + window <= count = exponents.len()
                if exponents[j] == EXCEPTION_EXPONENT {
                    return Err(Error::Corrupt("pseudodecimal placeholder outside patch bitmap"));
                }
                // lint: allow(indexing) j < count = digits.len() = exponents.len()
                // lint: allow(cast) exponent range-checked to 0..=23 by decompress
                out.push(decode_single(digits[j], exponents[j] as u8));
            }
        }
        i += window;
    }
    Ok(())
}

/// Gather table padded to 24 entries so exponent 23 (the patch placeholder)
/// gathers a harmless constant instead of reading out of bounds.
#[cfg(target_arch = "x86_64")]
static FRAC10_PADDED: [f64; 24] = {
    let mut t = [0.0; 24];
    let mut i = 0;
    while i < 23 {
        // lint: allow(indexing) i < 23 <= both table lengths (const-evaluated anyway)
        t[i] = FRAC10[i];
        i += 1;
    }
    t
};

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available, `digits.len() ==
// exponents.len()`, every exponent is in 0..=23 (the gather table is padded
// to 24 entries), and `out` has capacity for `digits.len()` doubles.
unsafe fn decode_avx2(digits: &[i32], exponents: &[i32], out: *mut f64) {
    let n = digits.len();
    let mut i = 0usize;
    while i + 4 <= n {
        // lint: allow(indexing) i + 4 <= n = digits.len() = exponents.len()
        decode4_avx2(&digits[i..i + 4], &exponents[i..i + 4], out.add(i));
        i += 4;
    }
    while i < n {
        // lint: allow(indexing) i < n = digits.len() = exponents.len()
        // lint: allow(cast) exponent range-checked to 0..=23 by decompress
        *out.add(i) = decode_single(digits[i], exponents[i] as u8);
        i += 1;
    }
}

/// Decodes exactly 4 values: `cvtepi32_pd` then `mul_pd` with gathered
/// inverse powers of ten — the vectorization described in §5.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available, both slices hold at least 4
// values, exponents are in 0..=23 (FRAC10_PADDED has 24 entries), and `out`
// has room for 4 doubles.
unsafe fn decode4_avx2(digits: &[i32], exponents: &[i32], out: *mut f64) {
    use std::arch::x86_64::*;
    let d = _mm_loadu_si128(digits.as_ptr() as *const __m128i);
    let e = _mm_loadu_si128(exponents.as_ptr() as *const __m128i);
    let dv = _mm256_cvtepi32_pd(d);
    let fv = _mm256_i32gather_pd::<8>(FRAC10_PADDED.as_ptr(), e);
    _mm256_storeu_pd(out, _mm256_mul_pd(dv, fv));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimdMode;
    use crate::scheme::testutil::roundtrip as roundtrip_with;
    use crate::scheme::SchemeCode;

    /// Round-trips under both decode kernels; returns the compressed size.
    fn roundtrip(values: &[f64]) -> usize {
        let scalar = Config { simd: SimdMode::ForceScalar, ..Config::default() };
        roundtrip_with(SchemeCode::Pseudodecimal, values, &scalar);
        roundtrip_with(SchemeCode::Pseudodecimal, values, &Config { simd: SimdMode::Auto, ..scalar })
    }

    #[test]
    fn paper_examples() {
        assert_eq!(encode_single(3.25), Some((325, 2)));
        assert_eq!(encode_single(0.99), Some((99, 2)));
        assert_eq!(encode_single(-6.425), Some((-6425, 3)));
        assert_eq!(encode_single(0.0), Some((0, 0)));
        assert_eq!(encode_single(5.5e-42), None);
        assert_eq!(encode_single(-0.0), None);
        assert_eq!(encode_single(f64::NAN), None);
        assert_eq!(encode_single(f64::INFINITY), None);
    }

    #[test]
    fn bitwise_identity_of_decode() {
        for v in [3.25, 0.99, 0.1, 123.456, -0.001, 2_000_000_000.0] {
            let (d, e) = encode_single(v).unwrap();
            assert_eq!(decode_single(d, e).to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn digits_overflow_is_patch() {
        // Needs more than 31 bits of significant digits.
        assert_eq!(encode_single(3_000_000_000.5), None);
        assert!(encode_single(2_000_000_000.0).is_some());
    }

    #[test]
    fn roundtrip_prices() {
        let values: Vec<f64> = (0..10_000).map(|i| (i % 3000) as f64 * 0.01).collect();
        roundtrip(&values);
    }

    #[test]
    fn roundtrip_with_patches() {
        let mut values: Vec<f64> = (0..1000).map(|i| i as f64 * 0.25).collect();
        values[3] = f64::NAN;
        values[500] = 5.5e-42;
        values[999] = -0.0;
        values[4] = f64::NEG_INFINITY;
        roundtrip(&values);
    }

    #[test]
    fn roundtrip_all_patches() {
        roundtrip(&[f64::NAN, f64::INFINITY, -0.0, 5.5e-42]);
    }

    #[test]
    fn roundtrip_paper_cascade_example() {
        // §4.2: [0.989…, 3.25, -6.425, 5.5e-42] with the last as a patch.
        roundtrip(&[0.989, 3.25, -6.425, 5.5e-42]);
    }

    #[test]
    fn roundtrip_empty_and_misaligned_tails() {
        roundtrip(&[]);
        roundtrip(&[1.5]);
        roundtrip(&[1.5, 2.5, 3.5]);
        roundtrip(&[1.5, 2.5, 3.5, 4.5, 5.5]);
    }

    #[test]
    fn compresses_price_data_well() {
        let values: Vec<f64> = (0..64_000).map(|i| (i % 100) as f64 * 0.05 + 0.99).collect();
        let size = roundtrip(&values);
        assert!(size * 4 < values.len() * 8, "PDE should beat raw doubles 4x on prices, got {size} bytes");
    }
}
