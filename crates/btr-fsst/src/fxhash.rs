//! The workspace's one fast, non-cryptographic hasher.
//!
//! btrblocks' statistics pass (`stats::Pass`) hashes every value of every
//! block into its probe table, and FSST training counts symbol candidates
//! in a hash map; the standard library's SipHash would dominate both
//! profiles. This is the multiply-and-rotate scheme of rustc's `FxHasher`
//! with Murmur3's fmix64 as finalizer — not DoS-resistant, which is fine
//! for hashing data we are compressing ourselves. It lives here because
//! btr-fsst sits below btrblocks.

use std::hash::Hasher;

/// Multiplicative hasher (the rustc `FxHasher` construction).
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            // lint: allow(indexing) rest is a chunks_exact(8) remainder, so < 8 bytes
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        // lint: allow(cast) bit-reinterpretation of i32 for hashing, not a narrowing
        self.add_to_hash(v as u32 as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply concentrates entropy in the high bits, but the probe
        // table derives slots from the LOW bits — without a finalizer, keys
        // sharing low bytes (e.g. a common string prefix) collide
        // catastrophically. This is Murmur3's fmix64.
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_distinct_hashes_mostly() {
        use std::collections::HashSet;
        use std::hash::Hash;
        let mut hashes = HashSet::new();
        for i in 0..100_000u64 {
            let mut h = FxHasher::default();
            i.hash(&mut h);
            hashes.insert(h.finish());
        }
        // No catastrophic collapse.
        assert!(hashes.len() > 99_000);
    }

    #[test]
    fn byte_slices_hash_by_content() {
        use std::hash::Hash;
        let h = |s: &[u8]| {
            let mut hasher = FxHasher::default();
            s.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(b"hello"), h(b"hello"));
        assert_ne!(h(b"hello"), h(b"hellp"));
        assert_ne!(h(b""), h(b"\0"));
    }
}
