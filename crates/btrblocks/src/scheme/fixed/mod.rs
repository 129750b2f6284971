//! The fixed-width scheme layer: One Value, RLE, Dictionary, Frequency and
//! Uncompressed, written once over the sealed [`Value`] trait.
//!
//! The paper's pool (§3, Figure 3) applies these five schemes to integers and
//! doubles alike; only the element width, the notion of equality (`-0.0` and
//! every NaN payload are distinct values, so doubles compare by bit pattern)
//! and the AVX2 lane count (the [`Lane`] supertrait: the kernels in
//! [`crate::simd`] are per type) differ. [`Value`] names exactly those differences,
//! plus the hooks through which each type adds the schemes that really are
//! its own ([`super::int`]: FastPFOR, FastBP128; [`super::double`]:
//! Pseudodecimal). Everything is statically monomorphised — no trait objects
//! — so each type runs the code its hand-written twin used to.

pub mod dict;
pub mod frequency;
pub mod onevalue;
pub mod rle;
pub mod uncompressed;

use crate::config::Config;
use crate::scheme::SchemeCode;
use crate::scratch::{sealed, Scratch};
use crate::simd::Lane;
use crate::stats::NumericStats;
use crate::types::ColumnType;
use crate::writer::Reader;
use crate::Result;

/// A fixed-width column element: `i32` or `f64`, nothing else. Sealed by
/// the arena's freelist traits: the element and [`Value::Bits`] each have
/// one in [`Scratch`], so generic code leases `Vec<V>` and
/// `FxHashMap<V::Bits, usize>`.
pub trait Value:
    Copy + Default + PartialOrd + std::fmt::Debug + Lane + sealed::Elem
{
    /// The identity of a value for equality, hashing and deterministic
    /// tie-breaks: the value itself for `i32`, the raw bit pattern for `f64`.
    type Bits: Default + Ord + std::fmt::Debug + sealed::Key;
    /// Encoded width in bytes.
    const SIZE: usize;
    /// The column type whose applicable scheme list this type selects from.
    const TYPE: ColumnType;

    /// The value's identity (see [`Value::Bits`]).
    fn to_bits(self) -> Self::Bits;
    /// Inverse of [`Value::to_bits`].
    fn from_bits(bits: Self::Bits) -> Self;

    /// Appends `values` little-endian.
    fn put_slice(values: &[Self], out: &mut Vec<u8>);
    /// Decodes one little-endian value from exactly [`Value::SIZE`] bytes
    /// (what [`Reader::value`] and [`Reader::vec_into`] are built on).
    fn from_le(chunk: &[u8]) -> Self;

    /// Viability of a scheme outside the shared five (see [`viable`]).
    fn viable_own(code: SchemeCode, stats: &NumericStats<Self>, sample: &[Self]) -> bool;
    /// Compresses `values` with one of the type's own schemes. Panics on a
    /// scheme that is not applicable to the type (an encode-side bug).
    fn emit_own(
        code: SchemeCode,
        values: &[Self],
        child_depth: u8,
        cfg: &Config,
        scratch: &Scratch,
        out: &mut Vec<u8>,
    );
    /// Decompresses one of the type's own schemes; any other code is
    /// [`crate::Error::InvalidScheme`].
    fn decode_own(
        code: SchemeCode,
        r: &mut Reader<'_>,
        count: usize,
        cfg: &Config,
        scratch: &Scratch,
        out: &mut Vec<Self>,
    ) -> Result<()>;
}

/// RLE is viable from this average run length up (paper: 2.0).
const RLE_MIN_AVG_RUN: f64 = 2.0;

/// Frequency is viable up to this fraction of unique values (paper: 0.5).
const FREQUENCY_UNIQUE_MAX: f64 = 0.5;

/// Statistics-based viability filter (paper §3, step 2). `sample` is only
/// consulted by type-specific rules that statistics cannot decide
/// (Pseudodecimal's exception rate, paper §4.2).
pub fn viable<V: Value>(code: SchemeCode, stats: &NumericStats<V>, sample: &[V]) -> bool {
    match code {
        SchemeCode::OneValue => stats.unique_count <= 1,
        SchemeCode::Rle => stats.average_run_length >= RLE_MIN_AVG_RUN,
        SchemeCode::Frequency => {
            stats.unique_fraction() <= FREQUENCY_UNIQUE_MAX
                && stats.top_count * 2 >= stats.count
        }
        // A dictionary can never win when every value is distinct.
        SchemeCode::Dict => stats.unique_count < stats.count,
        SchemeCode::Uncompressed => true,
        other => V::viable_own(other, stats, sample),
    }
}

/// The one generic matrix every shared scheme's tests instantiate for both
/// types: hostile values × edge lengths × both SIMD modes.
#[cfg(test)]
pub(crate) mod testmatrix {
    use super::*;
    use crate::config::SimdMode;
    use crate::scheme::testutil::{decode, encode, roundtrip};

    /// Instantiates a generic `fn $matrix<V: Hostile>()` as one `#[test]` per
    /// type.
    macro_rules! for_both_types {
        ($matrix:ident) => {
            #[test]
            fn int() {
                $matrix::<i32>();
            }

            #[test]
            fn double() {
                $matrix::<f64>();
            }
        };
    }
    pub(crate) use for_both_types;

    /// A [`Value`] with the values most likely to break a codec.
    pub trait Hostile: Value {
        /// Eight values, pairwise distinct by [`Value::to_bits`].
        const HOSTILE: [Self; 8];
    }

    impl Hostile for i32 {
        const HOSTILE: [i32; 8] = [i32::MIN, i32::MAX, 0, -1, 1, 1_000_000_007, -77, 65_536];
    }

    impl Hostile for f64 {
        const HOSTILE: [f64; 8] = [
            0.0,
            -0.0,
            f64::from_bits(0x7FF8_0000_0000_0001),
            f64::from_bits(0xFFF8_0000_DEAD_BEEF),
            f64::from_bits(3), // subnormal
            f64::MIN_POSITIVE / 2.0,
            f64::NEG_INFINITY,
            83.283_3,
        ];
    }

    /// The shapes a scheme must survive at `n` values: all distinct-ish
    /// (cycling), runs of five, one dominant value with rare exceptions, and
    /// a constant.
    fn shapes<V: Hostile>(n: usize) -> [Vec<V>; 4] {
        let h = V::HOSTILE;
        [
            (0..n).map(|i| h[i % 8]).collect(),
            (0..n).map(|i| h[(i / 5) % 8]).collect(),
            (0..n)
                .map(|i| if i % 9 == 4 { h[i % 7 + 1] } else { h[0] })
                .collect(),
            vec![h[3]; n],
        ]
    }

    /// `code` forced at the root round-trips every shape bit-exactly at
    /// lengths 0/1/63/64/65/64 000 under both SIMD modes.
    pub fn roundtrips_hostile_shapes<V: Hostile>(code: SchemeCode) {
        for simd in [SimdMode::Auto, SimdMode::ForceScalar] {
            let cfg = Config {
                simd,
                ..Config::default()
            };
            for n in [0, 1, 63, 64, 65, 64_000] {
                for (shape, values) in shapes::<V>(n).iter().enumerate() {
                    if code == SchemeCode::OneValue && shape != 3 {
                        continue;
                    }
                    roundtrip(code, values, &cfg);
                }
            }
        }
    }

    /// A frame cut anywhere short of its end is a typed error, never a panic
    /// or a short answer.
    pub fn truncation_is_an_error<V: Hostile>(code: SchemeCode) {
        let cfg = Config::default();
        let values = if code == SchemeCode::OneValue {
            vec![V::HOSTILE[3]; 65]
        } else {
            shapes::<V>(65)[1].clone()
        };
        let bytes = encode(code, &values, &cfg);
        for cut in 0..bytes.len() {
            assert!(
                decode::<V>(&bytes[..cut], &cfg).is_err(),
                "{code:?} cut at {cut}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testmatrix::{for_both_types, Hostile};
    use super::*;

    fn shared_viability_rules<V: Hostile>() {
        let is_viable = |code, values: &[V]| viable(code, &NumericStats::collect(values), values);
        let [a, b] = [V::HOSTILE[0], V::HOSTILE[1]];
        let alternating: Vec<V> = (0..100).map(|i| if i % 2 == 0 { a } else { b }).collect();
        assert!(!is_viable(SchemeCode::Rle, &alternating));
        assert!(is_viable(SchemeCode::Rle, &[a, a, a, b, b, b]));
        // Frequency needs a dominant top value, Dictionary a repeated one.
        let flat: Vec<V> = (0..96).map(|i| V::HOSTILE[i % 8]).collect();
        assert!(!is_viable(SchemeCode::Frequency, &flat));
        assert!(is_viable(SchemeCode::Dict, &flat));
        assert!(!is_viable(SchemeCode::Dict, &V::HOSTILE));
        let mut skewed = vec![b; 90];
        skewed.extend_from_slice(&V::HOSTILE);
        assert!(is_viable(SchemeCode::Frequency, &skewed));
    }

    for_both_types!(shared_viability_rules);
}
