//! What is specific to integers: `i32` as a [`Value`], and the two
//! bit-packing schemes only integers have.

pub mod bp;
pub mod pfor;

use crate::config::Config;
use crate::fxhash::FxHashMap;
use crate::scheme::fixed::Value;
use crate::scheme::SchemeCode;
use crate::scratch::{DecodeScratch, EncodeScratch};
use crate::stats::NumericStats;
use crate::types::ColumnType;
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};

impl Value for i32 {
    type Bits = i32;
    const SIZE: usize = 4;
    const TYPE: ColumnType = ColumnType::Integer;

    #[inline]
    fn to_bits(self) -> i32 {
        self
    }
    #[inline]
    fn from_bits(bits: i32) -> i32 {
        bits
    }

    fn put_slice(values: &[i32], out: &mut Vec<u8>) {
        out.put_i32_slice(values);
    }
    #[inline]
    fn from_le(chunk: &[u8]) -> i32 {
        i32::from_le_bytes(chunk.try_into().unwrap_or_default())
    }

    fn lease_enc(scratch: &mut EncodeScratch, cap: usize) -> Vec<i32> {
        scratch.lease_i32(cap)
    }
    fn release_enc(scratch: &mut EncodeScratch, v: Vec<i32>) {
        scratch.release_i32(v);
    }
    fn lease_map(scratch: &mut EncodeScratch) -> FxHashMap<i32, usize> {
        scratch.lease_int_map()
    }
    fn release_map(scratch: &mut EncodeScratch, m: FxHashMap<i32, usize>) {
        scratch.release_int_map(m);
    }
    fn lease_dec(scratch: &mut DecodeScratch, cap: usize) -> Vec<i32> {
        scratch.lease_i32(cap)
    }
    fn release_dec(scratch: &mut DecodeScratch, v: Vec<i32>) {
        scratch.release_i32(v);
    }

    /// Bit-packing always applies (paper Figure 3).
    fn viable_own(code: SchemeCode, _: &NumericStats<i32>, _: &[i32], _: &Config) -> bool {
        matches!(code, SchemeCode::FastPfor | SchemeCode::FastBp128)
    }

    fn emit_own(
        code: SchemeCode,
        values: &[i32],
        _child_depth: u8,
        _cfg: &Config,
        scratch: &mut EncodeScratch,
        out: &mut Vec<u8>,
    ) {
        match code {
            SchemeCode::FastPfor => pfor::compress_into(values, scratch, out),
            SchemeCode::FastBp128 => bp::compress_into(values, scratch, out),
            _ => unreachable!("scheme {code:?} is not an integer scheme"),
        }
    }

    fn decode_own(
        code: SchemeCode,
        r: &mut Reader<'_>,
        count: usize,
        cfg: &Config,
        scratch: &mut DecodeScratch,
        out: &mut Vec<i32>,
    ) -> Result<()> {
        match code {
            SchemeCode::FastPfor => pfor::decompress_into(r, count, cfg, scratch, out),
            SchemeCode::FastBp128 => bp::decompress_into(r, count, cfg, scratch, out),
            other => Err(Error::InvalidScheme(other.as_u8())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::fixed::viable;

    #[test]
    fn bitpacking_always_viable_and_integer_only() {
        let cfg = Config::default();
        let any: Vec<i32> = (0..50).collect();
        let stats = NumericStats::collect(&any);
        assert!(viable(SchemeCode::FastPfor, &stats, &any, &cfg));
        assert!(viable(SchemeCode::FastBp128, &stats, &any, &cfg));
        assert!(!viable(SchemeCode::Pseudodecimal, &stats, &any, &cfg));
        // High uniqueness rules Frequency out however the values look.
        assert!(!viable(SchemeCode::Frequency, &stats, &any, &cfg));
    }
}
