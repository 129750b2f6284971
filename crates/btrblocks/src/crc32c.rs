//! CRC32C (Castagnoli) — the checksum guarding format-v2 files.
//!
//! One entry point, [`extend`], over two kernels: the SSE4.2 `crc32`
//! instruction ([`crate::simd::crc32c_extend_hw`], eight bytes an
//! instruction) where the CPU has it, else portable slice-by-8 over a
//! const-built 8 x 256 table (eight input bytes and eight independent lookups
//! a step, the classic one-table step for the tail of under eight bytes).
//! The Castagnoli polynomial (reflected form `0x82F63B78`) is the one iSCSI,
//! ext4 and that instruction use, so both kernels give the same values. The
//! tests hold each kernel the host can run to a table-free bitwise reference,
//! and in unit tests every `extend` call checks the two kernels against each
//! other.

const POLY: u32 = 0x82F6_3B78;

/// `TABLES[0][b]` is the CRC of the single byte `b` (the classic one-table
/// step); `TABLES[k][b]` is that byte's CRC after `k` further zero bytes, so
/// eight lookups advance the state over eight input bytes at once. A
/// `static`, not a `const`: an unoptimised build copies an indexed `const`
/// array (8 KB here) to the stack at every use.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        // lint: allow(cast) const table builder: i < 256
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        // lint: allow(indexing) const table builder: i < 256
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            // lint: allow(indexing) const table builder: k < 8, i < 256
            let prev = tables[k - 1][i];
            // lint: allow(indexing) const table builder: k < 8, i < 256, index masked to 0..256
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32C of `bytes` with the conventional init/xorout (`!0`).
pub fn crc32c(bytes: &[u8]) -> u32 {
    extend(!0u32, bytes) ^ !0u32
}

/// `TABLES[K][byte]` for the byte of `word` at bit `SHIFT`.
#[inline(always)]
fn lookup<const K: usize, const SHIFT: u32>(word: u32) -> u32 {
    // lint: allow(indexing) K is one of 0..8 at every call site; the index is masked to 0..256
    TABLES[K][((word >> SHIFT) & 0xFF) as usize]
}

/// Feed more bytes into a running (pre-xorout) CRC state. Start from `!0`,
/// finish by xoring with `!0`; `crc32c` does both for the one-shot case.
pub fn extend(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(test)]
    HASHED_BYTES.with(|n| n.set(n.get() + bytes.len() as u64));
    let crc = crate::simd::crc32c_extend_hw(state, bytes)
        .unwrap_or_else(|| extend_portable(state, bytes));
    // Every CRC a unit test computes, on real file bytes and split points,
    // doubles as a differential check of the two kernels.
    #[cfg(test)]
    assert_eq!(crc, extend_portable(state, bytes), "CRC32C kernels disagree");
    crc
}

/// Slice-by-8: eight input bytes and eight independent table lookups a step,
/// the one-table step for the tail.
fn extend_portable(state: u32, bytes: &[u8]) -> u32 {
    let (words, tail) = bytes.as_chunks::<8>();
    let mut crc = state;
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
        let lo = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        crc = lookup::<7, 0>(lo)
            ^ lookup::<6, 8>(lo)
            ^ lookup::<5, 16>(lo)
            ^ lookup::<4, 24>(lo)
            ^ lookup::<3, 0>(hi)
            ^ lookup::<2, 8>(hi)
            ^ lookup::<1, 16>(hi)
            ^ lookup::<0, 24>(hi);
    }
    for &b in tail {
        crc = (crc >> 8) ^ lookup::<0, 0>(crc ^ u32::from(b));
    }
    crc
}

/// Product of two polynomials modulo the Castagnoli polynomial, both in the
/// reflected representation the CRC uses (bit 31 is `x^0`).
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        bit >>= 1;
    }
    product
}

/// `SHIFT[k]` is `x^(8 * 2^k) mod P`: multiplying a CRC by it appends `2^k`
/// zero bytes. 64 entries cover every `u64` length.
const SHIFT: [u32; 64] = build_shift();

const fn build_shift() -> [u32; 64] {
    let mut table = [0u32; 64];
    // x^1, squared three times: x^8, one zero byte.
    let mut power = 1u32 << 30;
    let mut squarings = 0;
    while squarings < 3 {
        power = mul_mod_p(power, power);
        squarings += 1;
    }
    let mut k = 0;
    while k < 64 {
        // lint: allow(indexing) const table builder: k < 64
        table[k] = power;
        power = mul_mod_p(power, power);
        k += 1;
    }
    table
}

/// CRC32C of `A || B` from `crc_a = crc32c(A)`, `crc_b = crc32c(B)` and
/// `len_b = B.len()`, without touching a byte of either.
///
/// A CRC is linear over GF(2): appending `len_b` bytes multiplies the CRC of
/// `A` by `x^(8 * len_b) mod P`, and `B` contributes its own CRC on top
/// (the init/xorout terms of the two finished values cancel). The multiplier
/// is assembled from `SHIFT` by the bits of `len_b`, so a call costs one
/// 32-step shift/xor multiply per set bit - at most 64, independent of the
/// data size. This is an identity, not an approximation:
/// `combine(crc32c(a), crc32c(b), b.len()) == crc32c(a ++ b)` for all inputs.
pub fn combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    let mut crc = crc_a;
    let mut rest = len_b;
    for &shift in &SHIFT {
        if rest == 0 {
            break;
        }
        if rest & 1 != 0 {
            crc = mul_mod_p(shift, crc);
        }
        rest >>= 1;
    }
    crc ^ crc_b
}

#[cfg(test)]
thread_local! {
    /// Bytes this thread has fed through [`extend`]: lets a test assert that a
    /// reader or writer hashed each byte once, as a count instead of a timing.
    static HASHED_BYTES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Runs `f` and returns its result with the number of bytes it hashed.
#[cfg(test)]
pub(crate) fn count_hashed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = HASHED_BYTES.with(|n| n.get());
    let out = f();
    (out, HASHED_BYTES.with(|n| n.get()) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Kernel = fn(u32, &[u8]) -> u32;

    /// Every `extend` kernel this host can run, by name.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> = vec![("slice-by-8", extend_portable)];
        if crate::simd::crc32c_extend_hw(!0, b"").is_some() {
            kernels.push(("sse4.2", |state, bytes| {
                crate::simd::crc32c_extend_hw(state, bytes).expect("detected in kernels()")
            }));
        }
        kernels
    }

    #[test]
    fn hardware_kernel_is_taken_where_detected() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            let data = noise(1_000);
            assert_eq!(
                crate::simd::crc32c_extend_hw(0x1357_9BDF, &data),
                Some(extend(0x1357_9BDF, &data)),
                "SSE4.2 is detected: the wrapper must take it"
            );
        }
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 (iSCSI) test vectors for CRC32C.
        let ascending: Vec<u8> = (0u8..32).collect();
        for (name, kernel) in kernels() {
            let crc = |bytes: &[u8]| kernel(!0, bytes) ^ !0;
            assert_eq!(crc(b""), 0, "{name}");
            assert_eq!(crc(b"123456789"), 0xE306_9283, "{name}");
            assert_eq!(crc(&[0u8; 32]), 0x8A91_36AA, "{name}");
            assert_eq!(crc(&[0xFFu8; 32]), 0x62A8_AB43, "{name}");
            assert_eq!(crc(&ascending), 0x46DD_794E, "{name}");
        }
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"hello, columnar world";
        for (name, kernel) in kernels() {
            for split in 0..data.len() {
                let state = kernel(kernel(!0u32, &data[..split]), &data[split..]);
                assert_eq!(state ^ !0u32, crc32c(data), "{name} split {split}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data: Vec<u8> = (0..255u8).collect();
        let base = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut copy = data.clone();
                copy[byte] ^= 1 << bit;
                assert_ne!(crc32c(&copy), base, "flip at {byte}:{bit} undetected");
            }
        }
    }

    /// `combine` applied to the two halves of `data` split at `at`.
    fn combined(data: &[u8], at: usize) -> u32 {
        let (a, b) = data.split_at(at);
        combine(crc32c(a), crc32c(b), b.len() as u64)
    }

    #[test]
    fn combine_equals_one_shot_at_every_split() {
        let mut x = 0x2545_F491u32;
        let data: Vec<u8> = (0..5_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect();
        let whole = crc32c(&data);
        for at in 0..=data.len() {
            assert_eq!(combined(&data, at), whole, "split at {at}");
        }
        // Part-sized lengths (a string block is 2-3 MB), where the high
        // `SHIFT` entries do the work.
        let big: Vec<u8> = data.iter().cycle().take((3 << 20) + 7).copied().collect();
        let whole = crc32c(&big);
        for at in [1, 1 << 20, (1 << 21) + 5, big.len() - 1] {
            assert_eq!(combined(&big, at), whole, "split at {at}");
        }
        // Degenerate inputs: empty, and one byte split on either side.
        assert_eq!(combined(b"", 0), crc32c(b""));
        assert_eq!(combined(b"z", 0), crc32c(b"z"));
        assert_eq!(combined(b"z", 1), crc32c(b"z"));
    }

    #[test]
    fn combine_with_empty_suffix_is_identity() {
        for a in [0, 1, 0xE306_9283, u32::MAX] {
            assert_eq!(combine(a, crc32c(b""), 0), a);
        }
    }

    #[test]
    fn combine_is_associative() {
        let (a, b, c) = (0xE306_9283, 0x8A91_36AA, 0x46DD_794E);
        let lens = [0u64, 1, 7, 4_096, u64::from(u32::MAX), 3 << 40];
        for lb in lens {
            for lc in lens {
                assert_eq!(
                    combine(combine(a, b, lb), c, lc),
                    combine(a, combine(b, c, lc), lb + lc),
                    "lb {lb} lc {lc}"
                );
            }
        }
    }

    #[test]
    fn known_vectors_reassemble_from_two_halves() {
        let ascending: Vec<u8> = (0u8..32).collect();
        let descending: Vec<u8> = (0u8..32).rev().collect();
        for (data, want) in [
            (&b"123456789"[..], 0xE306_9283),
            (&[0u8; 32][..], 0x8A91_36AA),
            (&[0xFFu8; 32][..], 0x62A8_AB43),
            (&ascending[..], 0x46DD_794E),
            (&descending[..], 0x113F_DB5C),
        ] {
            assert_eq!(combined(data, data.len() / 2), want);
        }
    }

    #[test]
    fn extend_counts_the_bytes_it_hashes() {
        let ((), n) = count_hashed(|| {
            crc32c(&[0u8; 100]);
            extend(!0, &[1, 2, 3]);
            combine(1, 2, 1 << 20);
        });
        assert_eq!(n, 103);
    }

    /// The reference `extend` is held to: shift/xor, one bit at a time, no
    /// table.
    fn extend_bitwise(state: u32, bytes: &[u8]) -> u32 {
        let mut crc = state;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        crc
    }

    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9u32;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn extend_matches_the_bitwise_reference_at_every_length_and_alignment() {
        let data = noise(308);
        for (name, kernel) in kernels() {
            for offset in 0..8 {
                for len in 0..=300 {
                    let bytes = &data[offset..offset + len];
                    for state in [!0u32, 0x1357_9BDF] {
                        assert_eq!(
                            kernel(state, bytes),
                            extend_bitwise(state, bytes),
                            "{name} offset {offset} len {len} state {state:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn extend_matches_the_bitwise_reference_around_64_kib() {
        let data = noise((64 << 10) + 9);
        for (name, kernel) in kernels() {
            for extra in [0, 1, 7, 8, 9] {
                let bytes = &data[..(64 << 10) + extra];
                assert_eq!(kernel(!0, bytes), extend_bitwise(!0, bytes), "{name} 64 KiB + {extra}");
            }
        }
    }

    #[test]
    fn extend_streams_across_every_split_point() {
        let data = noise(300);
        let state = 0x0BAD_CAFEu32;
        let whole = extend_bitwise(state, &data);
        for (name, kernel) in kernels() {
            for at in 0..=data.len() {
                let (a, b) = data.split_at(at);
                assert_eq!(kernel(kernel(state, a), b), whole, "{name} split at {at}");
            }
        }
    }
}
