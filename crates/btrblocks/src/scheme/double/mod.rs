//! What is specific to doubles: `f64` as a [`Value`] (identity is the raw
//! bit pattern, so `-0.0` and every NaN payload survive), and Pseudodecimal.

pub mod decimal;

use crate::config::Config;
use crate::fxhash::FxHashMap;
use crate::scheme::fixed::Value;
use crate::scheme::SchemeCode;
use crate::scratch::{DecodeScratch, EncodeScratch};
use crate::stats::NumericStats;
use crate::types::ColumnType;
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};

impl Value for f64 {
    type Bits = u64;
    const SIZE: usize = 8;
    const TYPE: ColumnType = ColumnType::Double;

    #[inline]
    fn to_bits(self) -> u64 {
        f64::to_bits(self)
    }
    #[inline]
    fn from_bits(bits: u64) -> f64 {
        f64::from_bits(bits)
    }

    fn put_slice(values: &[f64], out: &mut Vec<u8>) {
        out.put_f64_slice(values);
    }
    #[inline]
    fn from_le(chunk: &[u8]) -> f64 {
        f64::from_le_bytes(chunk.try_into().unwrap_or_default())
    }

    fn lease_enc(scratch: &mut EncodeScratch, cap: usize) -> Vec<f64> {
        scratch.lease_f64(cap)
    }
    fn release_enc(scratch: &mut EncodeScratch, v: Vec<f64>) {
        scratch.release_f64(v);
    }
    fn lease_map(scratch: &mut EncodeScratch) -> FxHashMap<u64, usize> {
        scratch.lease_bits_map()
    }
    fn release_map(scratch: &mut EncodeScratch, m: FxHashMap<u64, usize>) {
        scratch.release_bits_map(m);
    }
    fn lease_dec(scratch: &mut DecodeScratch, cap: usize) -> Vec<f64> {
        scratch.lease_f64(cap)
    }
    fn release_dec(scratch: &mut DecodeScratch, v: Vec<f64>) {
        scratch.release_f64(v);
    }

    /// Pseudodecimal additionally checks the *sample's* exception rate,
    /// because "fraction of non-encodable values" is not derivable from
    /// simple statistics (paper §4.2).
    fn viable_own(code: SchemeCode, stats: &NumericStats<f64>, sample: &[f64], cfg: &Config) -> bool {
        if code != SchemeCode::Pseudodecimal || stats.unique_fraction() < cfg.pde_unique_min {
            return false;
        }
        let exceptions = sample
            .iter()
            .filter(|&&v| decimal::encode_single(v).is_none())
            .count();
        (exceptions as f64) <= cfg.pde_exception_max * sample.len().max(1) as f64
    }

    fn emit_own(
        code: SchemeCode,
        values: &[f64],
        child_depth: u8,
        cfg: &Config,
        scratch: &mut EncodeScratch,
        out: &mut Vec<u8>,
    ) {
        match code {
            SchemeCode::Pseudodecimal => decimal::compress(values, child_depth, cfg, scratch, out),
            _ => unreachable!("scheme {code:?} is not a double scheme"),
        }
    }

    fn decode_own(
        code: SchemeCode,
        r: &mut Reader<'_>,
        count: usize,
        cfg: &Config,
        scratch: &mut DecodeScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        match code {
            SchemeCode::Pseudodecimal => decimal::decompress_into(r, count, cfg, scratch, out),
            other => Err(Error::InvalidScheme(other.as_u8())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::fixed::viable;

    fn pde_viable(values: &[f64]) -> bool {
        let stats = NumericStats::collect(values);
        viable(SchemeCode::Pseudodecimal, &stats, values, &Config::default())
    }

    #[test]
    fn pde_excluded_for_low_uniqueness() {
        let values: Vec<f64> = (0..1000).map(|i| (i % 5) as f64 * 0.25).collect();
        assert!(!pde_viable(&values));
    }

    #[test]
    fn pde_excluded_for_many_exceptions() {
        // High-precision values (longitude-like): mostly non-encodable.
        let values: Vec<f64> = (0..1000).map(|i| -73.0 - (i as f64).sin() / 1e7).collect();
        assert!(!pde_viable(&values));
    }

    #[test]
    fn pde_viable_for_prices_and_double_only() {
        let values: Vec<f64> = (0..1000).map(|i| (i % 800) as f64 * 0.01 + 0.99).collect();
        assert!(pde_viable(&values));
        let stats = NumericStats::collect(&values);
        assert!(!viable(SchemeCode::FastBp128, &stats, &values, &Config::default()));
    }
}
