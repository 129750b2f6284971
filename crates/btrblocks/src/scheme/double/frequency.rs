//! Frequency encoding for doubles: dominant top value + Roaring exceptions.
//!
//! Payload: `[top: f64][bitmap_len: u32][roaring bitmap][child: exceptions
//! (double)]`.

use crate::config::Config;
use crate::scheme;
use crate::scratch::{DecodeScratch, EncodeScratch};
use crate::stats::DoubleStats;
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};
use btr_roaring::RoaringBitmap;

/// Compresses `values` as Frequency encoding.
///
/// Takes the selection layer's one-pass `stats` by reference (the dominant
/// value was already found there) instead of re-collecting them, and leases
/// the exception array from `scratch`.
pub fn compress(
    values: &[f64],
    stats: &DoubleStats,
    child_depth: u8,
    cfg: &Config,
    scratch: &mut EncodeScratch,
    out: &mut Vec<u8>,
) {
    let top_bits = stats.top_value.to_bits();
    let mut exceptions = scratch.lease_f64(values.len().saturating_sub(stats.top_count));
    let bitmap = RoaringBitmap::from_sorted_iter(values.iter().enumerate().filter_map(|(i, &v)| {
        if v.to_bits() != top_bits {
            exceptions.push(v);
            // lint: allow(cast) encode side: block row index fits u32
            Some(i as u32)
        } else {
            None
        }
    }));
    let bitmap_bytes = bitmap.serialize();
    out.put_f64(stats.top_value);
    // lint: allow(cast) encode side: serialized bitmap is far smaller than 4 GiB
    out.put_u32(bitmap_bytes.len() as u32);
    out.extend_from_slice(&bitmap_bytes);
    scheme::compress_double_into(&exceptions, child_depth, cfg, scratch, out);
    scratch.release_f64(exceptions);
}

/// Decompresses a Frequency block of `count` doubles into `out`, leasing the
/// exception buffer from `scratch`. The Roaring bitmap itself still
/// deserializes into fresh containers — the one allocation this scheme keeps.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &mut DecodeScratch,
    out: &mut Vec<f64>,
) -> Result<()> {
    let top = r.f64()?;
    let bitmap_len = r.u32()? as usize;
    let bitmap = RoaringBitmap::deserialize(r.take(bitmap_len)?)?;
    let mut exceptions = scratch.lease_f64(0);
    let mut positions = scratch.lease_u32(bitmap.cardinality() as usize);
    let result = (|| -> Result<()> {
        scheme::decompress_double_into(r, cfg, scratch, &mut exceptions)?;
        if bitmap.cardinality() as usize != exceptions.len() {
            return Err(Error::Corrupt("frequency exception count mismatch"));
        }
        positions.extend(bitmap.iter());
        // Splat the top value, then patch the exceptions in: both steps are
        // vectorized, with one range check over all positions up front.
        crate::simd::fill_f64(top, count, cfg.simd, out);
        if !crate::simd::patch_f64(out, &positions, &exceptions, cfg.simd) {
            return Err(Error::Corrupt("frequency exception position out of range"));
        }
        Ok(())
    })();
    scratch.release_u32(positions);
    scratch.release_f64(exceptions);
    result
}

#[cfg(test)]
mod tests {
    use crate::config::Config;
    use crate::scheme::testutil::roundtrip_double;
    use crate::scheme::SchemeCode;

    fn roundtrip(values: &[f64]) -> usize {
        roundtrip_double(SchemeCode::Frequency, values, &Config::default())
    }

    #[test]
    fn roundtrip_dominant_zero() {
        let mut values = vec![0.0; 10_000];
        for i in (0..10_000).step_by(53) {
            values[i] = i as f64 * 0.1;
        }
        let size = roundtrip(&values);
        assert!(size * 8 < values.len() * 8, "got {size} bytes");
    }

    #[test]
    fn roundtrip_edge_cases() {
        roundtrip(&[]);
        roundtrip(&[1.0]);
        roundtrip(&[f64::NAN, f64::NAN, 2.0]);
    }
}
