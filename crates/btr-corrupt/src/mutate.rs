//! Deterministic byte-level mutations of an encoded buffer.
//!
//! A campaign enumerates four families of damage, mirroring what cloud object
//! storage actually does to bytes in the wild:
//!
//! * **truncation** — a ranged GET cut short, or an object uploaded partially;
//! * **single-bit flips** — classic bit rot;
//! * **random byte stomps** — a corrupted page inside the payload;
//! * **length-field stomps** — targeted damage to the size/count/offset
//!   fields that decoders use for allocation and slicing, the mutations most
//!   likely to turn a parser into a memory bomb or an overflowing range.

use crate::rng::Xorshift;

/// One mutation of an input buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Keep only the first `len` bytes.
    Truncate(usize),
    /// XOR bit `bit` (0–7) of the byte at `offset`.
    BitFlip { offset: usize, bit: u8 },
    /// Overwrite the byte at `offset` with `value`.
    ByteSet { offset: usize, value: u8 },
    /// Overwrite four little-endian bytes at `offset` with `value` —
    /// simulates a corrupted length/count field.
    WordSet { offset: usize, value: u32 },
    /// Overwrite eight little-endian bytes at `offset` with `value` —
    /// simulates a corrupted 64-bit offset field.
    QuadSet { offset: usize, value: u64 },
}

impl Mutation {
    /// Applies the mutation, returning the damaged copy. Mutations are
    /// clamped to the buffer, so any mutation is applicable to any input.
    pub fn apply(&self, bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        match *self {
            Mutation::Truncate(len) => out.truncate(len.min(bytes.len())),
            Mutation::BitFlip { offset, bit } => {
                if let Some(b) = out.get_mut(offset) {
                    *b ^= 1 << (bit & 7);
                }
            }
            Mutation::ByteSet { offset, value } => {
                if let Some(b) = out.get_mut(offset) {
                    *b = value;
                }
            }
            Mutation::WordSet { offset, value } => set_le(&mut out, offset, &value.to_le_bytes()),
            Mutation::QuadSet { offset, value } => set_le(&mut out, offset, &value.to_le_bytes()),
        }
        out
    }
}

/// Overwrites `out[offset..]` with `bytes`, clamped to the buffer.
fn set_le(out: &mut [u8], offset: usize, bytes: &[u8]) {
    for (i, v) in bytes.iter().enumerate() {
        if let Some(b) = out.get_mut(offset + i) {
            *b = *v;
        }
    }
}

/// Extreme values used for targeted length-field damage: the allocations a
/// decoder would attempt for these range from zero to 4 GB.
pub const HOSTILE_LENGTHS: [u32; 8] = [
    0,
    1,
    0x7F,
    0xFFFF,
    0x00FF_FFFF,
    0x7FFF_FFFF,
    0xFFFF_FFFE,
    u32::MAX,
];

/// Extreme values for targeted 64-bit offset damage: the ones whose sum
/// with any length wraps, and the sign bit.
pub const HOSTILE_OFFSETS: [u64; 3] = [u64::MAX, u64::MAX - 1, 1 << 63];

/// Every hostile value that fits before `end`, at each of `offsets`.
fn hostile_words(
    offsets: impl Iterator<Item = usize>,
    end: usize,
) -> impl Iterator<Item = Mutation> {
    offsets.flat_map(move |offset| {
        let words = HOSTILE_LENGTHS.iter().filter(move |_| offset + 4 <= end);
        let quads = HOSTILE_OFFSETS.iter().filter(move |_| offset + 8 <= end);
        (words.map(move |&value| Mutation::WordSet { offset, value }))
            .chain(quads.map(move |&value| Mutation::QuadSet { offset, value }))
    })
}

/// Builds the deterministic mutation list for an input of `len` bytes.
///
/// The list always contains, in order:
/// 1. truncations — at *every* boundary when `len <= max_exhaustive`,
///    otherwise at `max_exhaustive` evenly spread boundaries (plus both ends);
/// 2. single-bit flips — every bit when `len * 8 <= max_exhaustive`,
///    otherwise `max_exhaustive` seeded-random positions;
/// 3. `random_bytes` seeded-random byte stomps;
/// 4. targeted word stomps: every [`HOSTILE_LENGTHS`] and
///    [`HOSTILE_OFFSETS`] value written at each 4-byte-aligned offset in the
///    first `header_window` bytes and at *every* offset in the last
///    `header_window` bytes (footer-at-end formats keep their lengths and
///    offsets there, at no particular alignment), plus `random_words`
///    seeded-random word positions deeper in the buffer.
pub fn plan_mutations(len: usize, seed: u64, budget: &MutationBudget) -> Vec<Mutation> {
    let mut rng = Xorshift::new(seed ^ (len as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut out = Vec::new();

    // 1. Truncations.
    if len <= budget.max_exhaustive {
        out.extend((0..len).map(Mutation::Truncate));
    } else {
        out.push(Mutation::Truncate(0));
        let step = len as f64 / budget.max_exhaustive as f64;
        out.extend((1..budget.max_exhaustive).map(|i| Mutation::Truncate((i as f64 * step) as usize)));
        out.push(Mutation::Truncate(len - 1));
    }

    if len == 0 {
        return out;
    }

    // 2. Bit flips.
    if len * 8 <= budget.max_exhaustive {
        for offset in 0..len {
            out.extend((0..8).map(|bit| Mutation::BitFlip { offset, bit }));
        }
    } else {
        for _ in 0..budget.max_exhaustive {
            out.push(Mutation::BitFlip {
                offset: rng.gen_range(0..len),
                bit: rng.gen_range(0u8..8),
            });
        }
    }

    // 3. Random byte stomps.
    for _ in 0..budget.random_bytes {
        out.push(Mutation::ByteSet {
            offset: rng.gen_range(0..len),
            value: rng.next_u32() as u8,
        });
    }

    // 4. Length-field damage: exhaustive over the header and tail windows...
    let window = budget.header_window.min(len);
    out.extend(hostile_words((0..window).step_by(4), window));
    out.extend(hostile_words(len - window..len, len));
    // ...and sampled deeper in the buffer, where block headers live.
    for _ in 0..budget.random_words {
        out.push(Mutation::WordSet {
            offset: rng.gen_range(0..len),
            value: HOSTILE_LENGTHS[rng.gen_range(0..HOSTILE_LENGTHS.len())],
        });
    }
    out
}

/// Knobs bounding a [`plan_mutations`] list.
#[derive(Debug, Clone)]
pub struct MutationBudget {
    /// Exhaustive-enumeration cutoff for truncations and bit flips.
    pub max_exhaustive: usize,
    /// Count of random byte stomps.
    pub random_bytes: usize,
    /// Header bytes that get every hostile value at every aligned offset;
    /// as many tail bytes get it at every offset.
    pub header_window: usize,
    /// Count of random hostile word stomps beyond the header.
    pub random_words: usize,
}

impl Default for MutationBudget {
    fn default() -> Self {
        MutationBudget {
            max_exhaustive: 512,
            random_bytes: 256,
            header_window: 32,
            random_words: 128,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic() {
        let b = MutationBudget::default();
        assert_eq!(plan_mutations(100, 7, &b), plan_mutations(100, 7, &b));
        assert_ne!(plan_mutations(100, 7, &b), plan_mutations(100, 8, &b));
    }

    #[test]
    fn small_inputs_get_every_truncation_and_bit() {
        let b = MutationBudget::default();
        let plan = plan_mutations(16, 1, &b);
        for i in 0..16 {
            assert!(plan.contains(&Mutation::Truncate(i)));
            for bit in 0..8 {
                assert!(plan.contains(&Mutation::BitFlip { offset: i, bit }));
            }
        }
    }

    #[test]
    fn apply_is_clamped_and_nondestructive() {
        let orig = vec![1u8, 2, 3, 4];
        assert_eq!(Mutation::Truncate(99).apply(&orig), orig);
        assert_eq!(Mutation::ByteSet { offset: 99, value: 0 }.apply(&orig), orig);
        let m = Mutation::WordSet { offset: 2, value: u32::MAX };
        assert_eq!(m.apply(&orig), vec![1, 2, 255, 255]);
        assert_eq!(orig, vec![1, 2, 3, 4], "input untouched");
    }

    #[test]
    fn tail_window_gets_every_offset_and_wide_values() {
        let plan = plan_mutations(100, 1, &MutationBudget::default());
        for offset in 68..=96 {
            assert!(plan.contains(&Mutation::WordSet { offset, value: u32::MAX }), "{offset}");
        }
        assert!(plan.contains(&Mutation::QuadSet { offset: 92, value: u64::MAX - 1 }));
        assert!(!plan.contains(&Mutation::QuadSet { offset: 93, value: u64::MAX - 1 }));
        assert!(plan.contains(&Mutation::QuadSet { offset: 24, value: 1 << 63 }));
        let m = Mutation::QuadSet { offset: 1, value: u64::MAX - 1 };
        assert_eq!(m.apply(&[0; 4]), vec![0, 0xFE, 0xFF, 0xFF]);
    }

    #[test]
    fn bitflip_flips_exactly_one_bit() {
        let orig = vec![0u8; 8];
        let out = Mutation::BitFlip { offset: 3, bit: 5 }.apply(&orig);
        assert_eq!(out[3], 1 << 5);
        assert_eq!(out.iter().map(|&b| b.count_ones()).sum::<u32>(), 1);
    }

    #[test]
    fn empty_input_only_truncates() {
        let plan = plan_mutations(0, 1, &MutationBudget::default());
        assert!(plan.is_empty());
    }
}
