//! Vectorized decompression kernels (paper §5) with scalar twins.
//!
//! Every kernel exists twice: an AVX2 implementation using the exact tricks
//! the paper describes (splat-store RLE runs that deliberately write past the
//! run end, gather-based dictionary decode) and a scalar implementation used
//! when AVX2 is unavailable or when [`SimdMode::ForceScalar`] is set — the
//! ablation of §6.8. The one exception is [`crc32c_extend_hw`]: a checksum,
//! not a decode kernel, whose portable twin is `crc32c`'s slice-by-8 and
//! which `SimdMode` does not select.
//!
//! The RLE kernels may write up to [`DECODE_SLACK`] elements past the logical
//! output end; all output vectors are allocated with that much spare
//! capacity and their length is fixed up afterwards, mirroring the paper's
//! "correct the buffer length afterwards" approach (Listing 3).

use crate::config::SimdMode;

/// Elements of over-write slack required after the logical end of RLE output.
pub const DECODE_SLACK: usize = 8;

/// Whether AVX2 kernels should be used under `mode`.
#[inline]
pub fn use_avx2(mode: SimdMode) -> bool {
    match mode {
        SimdMode::ForceScalar => false,
        SimdMode::Auto => avx2_available(),
    }
}

/// btr-bitpacking's unpack preference under `mode`.
pub(crate) fn unpack_pref(mode: SimdMode) -> btr_bitpacking::simd::SimdPref {
    match mode {
        SimdMode::ForceScalar => btr_bitpacking::simd::SimdPref::Scalar,
        SimdMode::Auto => btr_bitpacking::simd::SimdPref::Auto,
    }
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

// ------------------------------------------------------ per-type AVX2 lanes

/// An element type with its own AVX2 decode kernels. Lane widths genuinely
/// differ (8 × `i32`, 4 × `f64` / `u64`), so each type brings the `unsafe`
/// kernels; the safe dispatch around them — clear, reserve with slack,
/// scalar twin — is written once, in [`rle_decode_into`] and
/// [`dict_decode_into`].
pub trait Lane: Copy {
    /// The type's splat-store RLE kernel.
    ///
    /// # Safety
    /// AVX2 must be available, `values.len() == lengths.len()`, and `out`
    /// must have capacity for the sum of `lengths` plus [`DECODE_SLACK`]
    /// elements.
    #[cfg(target_arch = "x86_64")]
    // SAFETY: declaration only; the contract is the `# Safety` section above.
    unsafe fn rle_avx2(values: &[Self], lengths: &[u32], out: *mut Self);

    /// The type's gather dictionary kernel.
    ///
    /// # Safety
    /// AVX2 must be available, every code must be `< dict.len()`, and `out`
    /// must have capacity for `codes.len()` elements.
    #[cfg(target_arch = "x86_64")]
    // SAFETY: declaration only; the contract is the `# Safety` section above.
    unsafe fn dict_avx2(codes: &[u32], dict: &[Self], out: *mut Self);
}

macro_rules! lane {
    ($ty:ty, $rle:ident, $dict:ident) => {
        impl Lane for $ty {
            #[cfg(target_arch = "x86_64")]
            #[inline]
            // SAFETY: the trait's contract is the kernel's contract.
            unsafe fn rle_avx2(values: &[$ty], lengths: &[u32], out: *mut $ty) {
                $rle(values, lengths, out)
            }

            #[cfg(target_arch = "x86_64")]
            #[inline]
            // SAFETY: the trait's contract is the kernel's contract.
            unsafe fn dict_avx2(codes: &[u32], dict: &[$ty], out: *mut $ty) {
                $dict(codes, dict, out)
            }
        }
    };
}

lane!(i32, rle_decode_i32_avx2, dict_decode_i32_avx2);
lane!(f64, rle_decode_f64_avx2, dict_decode_f64_avx2);
lane!(u64, rle_decode_u64_avx2, dict_decode_u64_avx2);

// ---------------------------------------------------------------- RLE decode

/// Decodes RLE runs into `out`, clearing it first and reusing its capacity
/// (plus [`DECODE_SLACK`] for the splat-store overshoot). A single run is a
/// fill: Frequency's "everything is the top value" base layer comes through
/// here too.
pub fn rle_decode_into<T: Lane>(
    values: &[T],
    lengths: &[u32],
    total: usize,
    mode: SimdMode,
    out: &mut Vec<T>,
) {
    debug_assert_eq!(values.len(), lengths.len());
    out.clear();
    out.reserve(total + DECODE_SLACK);
    #[cfg(target_arch = "x86_64")]
    if use_avx2(mode) {
        // SAFETY: capacity reserved above includes DECODE_SLACK; lengths sum
        // to `total` (validated by the caller).
        unsafe {
            T::rle_avx2(values, lengths, out.as_mut_ptr());
            out.set_len(total);
        }
        return;
    }
    let _ = mode;
    for (&v, &l) in values.iter().zip(lengths) {
        out.extend(std::iter::repeat_n(v, l as usize));
    }
    debug_assert_eq!(out.len(), total);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available, that `values.len() ==
// lengths.len()`, and that `out` has capacity for the sum of `lengths` plus
// DECODE_SLACK elements — each splat store may overshoot a run end by up to
// one full vector, and the final run's overshoot lands in the slack.
unsafe fn rle_decode_i32_avx2(values: &[i32], lengths: &[u32], out: *mut i32) {
    use std::arch::x86_64::*;
    let mut dst = out;
    for (&v, &l) in values.iter().zip(lengths) {
        let target = dst.add(l as usize);
        let splat = _mm256_set1_epi32(v);
        // Deliberately overshoot past `target`; the caller reserved slack.
        while dst < target {
            _mm256_storeu_si256(dst as *mut __m256i, splat);
            dst = dst.add(8);
        }
        dst = target;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: same contract as `rle_decode_i32_avx2` (AVX2 present; `out` holds
// sum(lengths) + DECODE_SLACK elements), with 4-wide f64 stores.
unsafe fn rle_decode_f64_avx2(values: &[f64], lengths: &[u32], out: *mut f64) {
    use std::arch::x86_64::*;
    let mut dst = out;
    for (&v, &l) in values.iter().zip(lengths) {
        let target = dst.add(l as usize);
        let splat = _mm256_set1_pd(v);
        while dst < target {
            _mm256_storeu_pd(dst, splat);
            dst = dst.add(4);
        }
        dst = target;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: same contract as `rle_decode_i32_avx2` (AVX2 present; `out` holds
// sum(lengths) + DECODE_SLACK elements), with 4-wide u64 stores.
unsafe fn rle_decode_u64_avx2(values: &[u64], lengths: &[u32], out: *mut u64) {
    use std::arch::x86_64::*;
    let mut dst = out;
    for (&v, &l) in values.iter().zip(lengths) {
        let target = dst.add(l as usize);
        let splat = _mm256_set1_epi64x(v as i64);
        while dst < target {
            _mm256_storeu_si256(dst as *mut __m256i, splat);
            dst = dst.add(4);
        }
        dst = target;
    }
}

// --------------------------------------------------------------- Dict decode

/// Decodes dictionary codes to values (or string views) into `out`, clearing
/// it first and reusing its capacity.
pub fn dict_decode_into<T: Lane>(codes: &[u32], dict: &[T], mode: SimdMode, out: &mut Vec<T>) {
    out.clear();
    out.reserve(codes.len() + DECODE_SLACK);
    #[cfg(target_arch = "x86_64")]
    if use_avx2(mode) {
        // SAFETY: codes are validated against dict length by the caller.
        unsafe {
            T::dict_avx2(codes, dict, out.as_mut_ptr());
            out.set_len(codes.len());
        }
        return;
    }
    let _ = mode;
    // lint: allow(indexing) hot path; codes validated < dict.len() by the block decoder
    out.extend(codes.iter().map(|&c| dict[c as usize]));
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available, every code in `codes` is
// `< dict.len()` (gathers read `dict[code]` unmasked), and `out` has
// capacity for `codes.len()` elements; stores stay within that bound.
unsafe fn dict_decode_i32_avx2(codes: &[u32], dict: &[i32], out: *mut i32) {
    use std::arch::x86_64::*;
    let n = codes.len();
    let mut i = 0usize;
    // Manually 4x-unrolled 8-wide gather, as in Listing 3 (bottom).
    while i + 32 <= n {
        for j in 0..4 {
            let idx = _mm256_loadu_si256(codes.as_ptr().add(i + j * 8) as *const __m256i);
            let vals = _mm256_i32gather_epi32::<4>(dict.as_ptr(), idx);
            _mm256_storeu_si256(out.add(i + j * 8) as *mut __m256i, vals);
        }
        i += 32;
    }
    while i + 8 <= n {
        let idx = _mm256_loadu_si256(codes.as_ptr().add(i) as *const __m256i);
        let vals = _mm256_i32gather_epi32::<4>(dict.as_ptr(), idx);
        _mm256_storeu_si256(out.add(i) as *mut __m256i, vals);
        i += 8;
    }
    while i < n {
        // lint: allow(indexing) i < n = codes.len(); codes validated < dict.len() by caller
        *out.add(i) = dict[codes[i] as usize];
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: same contract as `dict_decode_i32_avx2` (AVX2 present; codes in
// range; `out` holds `codes.len()` elements), 8-byte gather stride.
unsafe fn dict_decode_f64_avx2(codes: &[u32], dict: &[f64], out: *mut f64) {
    use std::arch::x86_64::*;
    let n = codes.len();
    let mut i = 0usize;
    while i + 16 <= n {
        for j in 0..4 {
            let idx = _mm_loadu_si128(codes.as_ptr().add(i + j * 4) as *const __m128i);
            let vals = _mm256_i32gather_pd::<8>(dict.as_ptr(), idx);
            _mm256_storeu_pd(out.add(i + j * 4), vals);
        }
        i += 16;
    }
    while i + 4 <= n {
        let idx = _mm_loadu_si128(codes.as_ptr().add(i) as *const __m128i);
        let vals = _mm256_i32gather_pd::<8>(dict.as_ptr(), idx);
        _mm256_storeu_pd(out.add(i), vals);
        i += 4;
    }
    while i < n {
        // lint: allow(indexing) i < n = codes.len(); codes validated < dict.len() by caller
        *out.add(i) = dict[codes[i] as usize];
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: same contract as `dict_decode_i32_avx2` (AVX2 present; codes in
// range; `out` holds `codes.len()` elements), 8-byte gather stride.
unsafe fn dict_decode_u64_avx2(codes: &[u32], dict: &[u64], out: *mut u64) {
    use std::arch::x86_64::*;
    let n = codes.len();
    let mut i = 0usize;
    while i + 4 <= n {
        let idx = _mm_loadu_si128(codes.as_ptr().add(i) as *const __m128i);
        let vals = _mm256_i32gather_epi64::<8>(dict.as_ptr() as *const i64, idx);
        _mm256_storeu_si256(out.add(i) as *mut __m256i, vals);
        i += 4;
    }
    while i < n {
        // lint: allow(indexing) i < n = codes.len(); codes validated < dict.len() by caller
        *out.add(i) = dict[codes[i] as usize];
        i += 1;
    }
}

// ----------------------------------------------------------- Frequency patch

/// Validates that every position is `< limit`: the range check of the
/// Frequency scheme's exception patch, vectorized as an 8-wide unsigned max
/// reduction instead of a branch per element.
pub fn positions_in_range(positions: &[u32], limit: usize, mode: SimdMode) -> bool {
    if positions.is_empty() {
        return true;
    }
    #[cfg(target_arch = "x86_64")]
    if use_avx2(mode) {
        // SAFETY: positions is non-empty; reads stay within the slice
        // (8-wide body, scalar tail), no writes.
        let max = unsafe { max_u32_avx2(positions) };
        return (max as usize) < limit;
    }
    let _ = mode;
    let max = positions.iter().copied().max().unwrap_or(0);
    (max as usize) < limit
}

/// Applies Frequency exceptions: `out[positions[i]] = values[i]`. Returns
/// `false` (writing nothing) if any position is out of range — the caller
/// maps that to a corruption error. With a vectorized range check up front,
/// the patch loop itself needs no per-element branch.
pub fn patch<T: Copy>(out: &mut [T], positions: &[u32], values: &[T], mode: SimdMode) -> bool {
    debug_assert_eq!(positions.len(), values.len());
    if !positions_in_range(positions, out.len(), mode) {
        return false;
    }
    for (&pos, &v) in positions.iter().zip(values) {
        // lint: allow(indexing) every position was range-checked above
        out[pos as usize] = v;
    }
    true
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available and `values` is non-empty;
// all reads stay within `values` (8-wide body, scalar tail), no writes.
unsafe fn max_u32_avx2(values: &[u32]) -> u32 {
    use std::arch::x86_64::*;
    let n = values.len();
    let mut acc = _mm256_setzero_si256();
    let mut i = 0usize;
    while i + 8 <= n {
        let v = _mm256_loadu_si256(values.as_ptr().add(i) as *const __m256i);
        acc = _mm256_max_epu32(acc, v);
        i += 8;
    }
    let mut lanes = [0u32; 8];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
    let mut max = lanes.iter().copied().max().unwrap_or(0);
    while i < n {
        max = max.max(*values.get_unchecked(i));
        i += 1;
    }
    max
}

// ---------------------------------------------------------- Zone-map min/max

/// Min/max over an i32 slice (zone-map construction); `None` when empty.
pub fn minmax_i32(values: &[i32], mode: SimdMode) -> Option<(i32, i32)> {
    if values.is_empty() {
        return None;
    }
    #[cfg(target_arch = "x86_64")]
    if use_avx2(mode) {
        // SAFETY: values is non-empty; reads stay within the slice.
        return Some(unsafe { minmax_i32_avx2(values) });
    }
    let _ = mode;
    let mut min = i32::MAX;
    let mut max = i32::MIN;
    for &x in values {
        min = min.min(x);
        max = max.max(x);
    }
    Some((min, max))
}

/// NaN-aware min/max over an f64 slice (zone-map construction): returns
/// `(min, max, has_nan)` over the non-NaN values, with the
/// `(INFINITY, NEG_INFINITY)` identity when every value is NaN or the slice
/// is empty (callers detect that as `min > max`).
pub fn minmax_f64(values: &[f64], mode: SimdMode) -> (f64, f64, bool) {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(mode) && !values.is_empty() {
        // SAFETY: values is non-empty; reads stay within the slice.
        return unsafe { minmax_f64_avx2(values) };
    }
    let _ = mode;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut has_nan = false;
    for &x in values {
        if x.is_nan() {
            has_nan = true;
        } else {
            min = min.min(x);
            max = max.max(x);
        }
    }
    (min, max, has_nan)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available and `values` is non-empty;
// all reads stay within `values` (8-wide body, scalar tail), no writes.
unsafe fn minmax_i32_avx2(values: &[i32]) -> (i32, i32) {
    use std::arch::x86_64::*;
    let n = values.len();
    let mut vmin = _mm256_set1_epi32(i32::MAX);
    let mut vmax = _mm256_set1_epi32(i32::MIN);
    let mut i = 0usize;
    while i + 8 <= n {
        let v = _mm256_loadu_si256(values.as_ptr().add(i) as *const __m256i);
        vmin = _mm256_min_epi32(vmin, v);
        vmax = _mm256_max_epi32(vmax, v);
        i += 8;
    }
    let mut lo = [0i32; 8];
    let mut hi = [0i32; 8];
    _mm256_storeu_si256(lo.as_mut_ptr() as *mut __m256i, vmin);
    _mm256_storeu_si256(hi.as_mut_ptr() as *mut __m256i, vmax);
    let mut min = lo.iter().copied().min().unwrap_or(i32::MAX);
    let mut max = hi.iter().copied().max().unwrap_or(i32::MIN);
    while i < n {
        let x = *values.get_unchecked(i);
        min = min.min(x);
        max = max.max(x);
        i += 1;
    }
    (min, max)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available and `values` is non-empty;
// all reads stay within `values` (4-wide body, scalar tail), no writes.
unsafe fn minmax_f64_avx2(values: &[f64]) -> (f64, f64, bool) {
    use std::arch::x86_64::*;
    let n = values.len();
    let pos_inf = _mm256_set1_pd(f64::INFINITY);
    let neg_inf = _mm256_set1_pd(f64::NEG_INFINITY);
    let mut vmin = pos_inf;
    let mut vmax = neg_inf;
    let mut vnan = _mm256_setzero_pd();
    let mut i = 0usize;
    while i + 4 <= n {
        let v = _mm256_loadu_pd(values.as_ptr().add(i));
        // NaN lanes are masked to the min/max identities so they never
        // poison the accumulators, but they do set the NaN flag.
        let nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(v, v);
        vnan = _mm256_or_pd(vnan, nan);
        vmin = _mm256_min_pd(vmin, _mm256_blendv_pd(v, pos_inf, nan));
        vmax = _mm256_max_pd(vmax, _mm256_blendv_pd(v, neg_inf, nan));
        i += 4;
    }
    let mut lo = [0f64; 4];
    let mut hi = [0f64; 4];
    _mm256_storeu_pd(lo.as_mut_ptr(), vmin);
    _mm256_storeu_pd(hi.as_mut_ptr(), vmax);
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for l in lo {
        min = min.min(l);
    }
    for h in hi {
        max = max.max(h);
    }
    let mut has_nan = _mm256_movemask_pd(vnan) != 0;
    while i < n {
        let x = *values.get_unchecked(i);
        if x.is_nan() {
            has_nan = true;
        } else {
            min = min.min(x);
            max = max.max(x);
        }
        i += 1;
    }
    (min, max, has_nan)
}

// -------------------------------------------------------------------- CRC32C

/// Feeds `bytes` into a running CRC32C state (the contract of
/// [`crate::crc32c::extend`]) with the SSE4.2 `crc32` instruction, eight bytes
/// an instruction. `None` off x86-64 or without SSE4.2; the caller then runs
/// the portable kernel.
#[inline]
pub fn crc32c_extend_hw(state: u32, bytes: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: SSE4.2 was detected just above.
        return Some(unsafe { crc32c_sse42(state, bytes) });
    }
    let _ = (state, bytes);
    None
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
// SAFETY: caller must ensure SSE4.2 is available; the kernel reads `bytes`
// through safe chunk iteration and writes nothing.
unsafe fn crc32c_sse42(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let (words, tail) = bytes.as_chunks::<8>();
    let mut wide = u64::from(state);
    for &word in words {
        wide = _mm_crc32_u64(wide, u64::from_le_bytes(word));
    }
    // lint: allow(cast) `crc32` on a 64-bit operand zero-extends its 32-bit CRC
    let mut crc = wide as u32;
    for &b in tail {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both_modes() -> Vec<SimdMode> {
        vec![SimdMode::Auto, SimdMode::ForceScalar]
    }

    #[test]
    fn rle_i32_both_paths_match() {
        let values = vec![5, -3, 7, 0, 123];
        let lengths = vec![1u32, 13, 8, 3, 100];
        let total: usize = lengths.iter().map(|&l| l as usize).sum();
        let mut expected = Vec::new();
        for (&v, &l) in values.iter().zip(&lengths) {
            expected.extend(std::iter::repeat_n(v, l as usize));
        }
        for mode in both_modes() {
            let mut out = vec![77; 3]; // dirty: `_into` must clear, not append
            rle_decode_into(&values, &lengths, total, mode, &mut out);
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn rle_f64_both_paths_match() {
        let values = vec![1.5, -2.25, 0.0];
        let lengths = vec![7u32, 1, 22];
        let total = 30usize;
        let mut expected = Vec::new();
        for (&v, &l) in values.iter().zip(&lengths) {
            expected.extend(std::iter::repeat_n(v, l as usize));
        }
        for mode in both_modes() {
            let mut out = vec![7.7; 3];
            rle_decode_into(&values, &lengths, total, mode, &mut out);
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn rle_empty_runs() {
        for mode in both_modes() {
            let mut out = vec![77; 3];
            rle_decode_into::<i32>(&[], &[], 0, mode, &mut out);
            assert!(out.is_empty());
            // Zero-length runs are legal and contribute nothing.
            rle_decode_into(&[9, 8], &[0, 2], 2, mode, &mut out);
            assert_eq!(out, vec![8, 8]);
        }
    }

    #[test]
    fn dict_decode_both_paths_match() {
        let dict_i: Vec<i32> = (0..100).map(|i| i * 7 - 50).collect();
        let dict_f: Vec<f64> = (0..100).map(|i| i as f64 * 0.25).collect();
        let dict_u: Vec<u64> = (0..100).map(|i| (i as u64) << 32 | 0xABC).collect();
        let codes: Vec<u32> = (0..1000).map(|i| (i * 37) % 100).collect();
        for mode in both_modes() {
            // Dirty buffers: `_into` must clear, not append.
            let (mut out_i, mut out_f, mut out_u) = (vec![77; 3], vec![7.7; 3], vec![77; 3]);
            dict_decode_into(&codes, &dict_i, mode, &mut out_i);
            assert!(codes.iter().map(|&c| dict_i[c as usize]).eq(out_i));
            dict_decode_into(&codes, &dict_f, mode, &mut out_f);
            assert!(codes.iter().map(|&c| dict_f[c as usize]).eq(out_f));
            dict_decode_into(&codes, &dict_u, mode, &mut out_u);
            assert!(codes.iter().map(|&c| dict_u[c as usize]).eq(out_u));
        }
    }

    #[test]
    fn dict_decode_tail_lengths() {
        // Exercise every remainder vs the unrolled widths.
        let dict: Vec<i32> = (0..16).collect();
        let mut out = vec![77; 3];
        for n in 0..70usize {
            let codes: Vec<u32> = (0..n as u32).map(|i| i % 16).collect();
            for mode in both_modes() {
                // `out` is dirty with the previous length's values.
                dict_decode_into(&codes, &dict, mode, &mut out);
                assert_eq!(out.len(), n);
                assert!(codes.iter().zip(&out).all(|(&c, &o)| dict[c as usize] == o));
            }
        }
    }

    #[test]
    fn into_variants_clear_dirty_buffers() {
        let values = vec![5, -3];
        let lengths = vec![3u32, 2];
        let dict: Vec<i32> = (0..8).collect();
        let codes = vec![3u32, 0, 7];
        for mode in both_modes() {
            let mut out = vec![42; 17];
            rle_decode_into(&values, &lengths, 5, mode, &mut out);
            assert_eq!(out, vec![5, 5, 5, -3, -3]);
            let mut out = vec![-1; 100];
            dict_decode_into(&codes, &dict, mode, &mut out);
            assert_eq!(out, vec![3, 0, 7]);
        }
    }

    #[test]
    fn single_run_fills_at_every_tail_length() {
        for mode in both_modes() {
            for count in [0usize, 1, 7, 8, 9, 63, 64, 100] {
                let mut out = vec![99i32; 5]; // dirty buffer must be cleared
                rle_decode_into(&[-42], &[count as u32], count, mode, &mut out);
                assert_eq!(out, vec![-42; count], "mode {mode:?} count {count}");
                let mut out = vec![3.5f64; 11];
                rle_decode_into(&[0.25], &[count as u32], count, mode, &mut out);
                assert_eq!(out, vec![0.25; count], "mode {mode:?} count {count}");
            }
        }
    }

    #[test]
    fn patch_both_paths_match() {
        for mode in both_modes() {
            let mut base = vec![7i32; 50];
            let positions: Vec<u32> = vec![0, 3, 8, 17, 31, 49];
            let values: Vec<i32> = vec![-1, -2, -3, -4, -5, -6];
            assert!(patch(&mut base, &positions, &values, mode));
            let mut expected = vec![7i32; 50];
            for (&p, &v) in positions.iter().zip(&values) {
                expected[p as usize] = v;
            }
            assert_eq!(base, expected, "mode {mode:?}");

            let mut based = vec![1.0f64; 20];
            assert!(patch(&mut based, &[2, 19], &[f64::NAN, -0.0], mode));
            assert!(based[2].is_nan());
            assert_eq!(based[19].to_bits(), (-0.0f64).to_bits());
        }
    }

    #[test]
    fn patch_rejects_out_of_range_without_writing() {
        for mode in both_modes() {
            let mut base = vec![7i32; 10];
            // One in-range position followed by an out-of-range one: the
            // whole patch must be refused with no partial writes.
            assert!(!patch(&mut base, &[1, 10], &[5, 6], mode));
            assert_eq!(base, vec![7; 10], "mode {mode:?} must not partially patch");
            let mut based = vec![0.0f64; 4];
            assert!(!patch(&mut based, &[4], &[1.0], mode));
            assert_eq!(based, vec![0.0; 4]);
            // Empty patch always succeeds, even on an empty output.
            assert!(patch::<i32>(&mut [], &[], &[], mode));
        }
    }

    #[test]
    fn positions_in_range_tail_lengths() {
        for mode in both_modes() {
            for n in 0..40usize {
                let positions: Vec<u32> = (0..n as u32).collect();
                assert!(positions_in_range(&positions, n.max(1), mode));
                if n > 0 {
                    assert!(!positions_in_range(&positions, n - 1, mode), "n = {n}");
                }
            }
        }
    }

    #[test]
    fn minmax_i32_both_paths_match() {
        for mode in both_modes() {
            assert_eq!(minmax_i32(&[], mode), None);
            assert_eq!(minmax_i32(&[5], mode), Some((5, 5)));
            for n in [1usize, 7, 8, 9, 33, 100] {
                let values: Vec<i32> = (0..n as i32).map(|i| (i * 37 % 91) - 45).collect();
                let min = values.iter().copied().min().unwrap();
                let max = values.iter().copied().max().unwrap();
                assert_eq!(minmax_i32(&values, mode), Some((min, max)), "mode {mode:?} n {n}");
            }
            assert_eq!(minmax_i32(&[i32::MIN, i32::MAX], mode), Some((i32::MIN, i32::MAX)));
        }
    }

    #[test]
    fn minmax_f64_is_nan_aware_on_both_paths() {
        for mode in both_modes() {
            let (min, max, nan) = minmax_f64(&[], mode);
            assert!(min > max && !nan, "empty slice yields the fold identity");
            let (min, max, nan) = minmax_f64(&[f64::NAN, f64::NAN, f64::NAN], mode);
            assert!(min > max && nan, "all-NaN yields identity plus the flag");
            let values = [3.0, f64::NAN, -7.5, 0.0, f64::NAN, 11.25, -0.0];
            let (min, max, nan) = minmax_f64(&values, mode);
            assert_eq!((min, max), (-7.5, 11.25), "mode {mode:?}");
            assert!(nan);
            // NaN in the scalar tail (length not a multiple of 4) counts too.
            let values = [1.0, 2.0, 3.0, 4.0, f64::NAN];
            let (min, max, nan) = minmax_f64(&values, mode);
            assert_eq!((min, max), (1.0, 4.0));
            assert!(nan, "tail NaN must set the flag under mode {mode:?}");
            let (min, max, nan) = minmax_f64(&[f64::INFINITY, f64::NEG_INFINITY], mode);
            assert_eq!((min, max), (f64::NEG_INFINITY, f64::INFINITY));
            assert!(!nan);
        }
    }

    #[test]
    fn u64_rle_both_paths_match() {
        let values = vec![u64::MAX, 1, 0x1234_5678_9ABC_DEF0];
        let lengths = vec![3u32, 9, 2];
        let mut expected = Vec::new();
        for (&v, &l) in values.iter().zip(&lengths) {
            expected.extend(std::iter::repeat_n(v, l as usize));
        }
        for mode in both_modes() {
            let mut out = vec![77; 3];
            rle_decode_into(&values, &lengths, 14, mode, &mut out);
            assert_eq!(out, expected);
        }
    }
}
