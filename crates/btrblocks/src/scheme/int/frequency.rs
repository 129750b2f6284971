//! Frequency encoding (the paper's adaptation of DB2 BLU's scheme).
//!
//! Real-world columns often have one dominant value with exponentially rarer
//! exceptions. The block stores (1) the top value, (2) a Roaring bitmap
//! marking which positions are *not* the top value, and (3) the exception
//! values as a cascaded child block.
//!
//! Payload: `[top: i32][bitmap_len: u32][roaring bitmap][child block:
//! exceptions]`.

use crate::config::Config;
use crate::scheme;
use crate::scratch::{DecodeScratch, EncodeScratch};
use crate::stats::IntegerStats;
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};
use btr_roaring::RoaringBitmap;

/// Compresses `values` as Frequency encoding.
///
/// Takes the selection layer's one-pass `stats` by reference (the dominant
/// value was already found there) instead of re-collecting them, and leases
/// the exception array from `scratch`.
pub fn compress(
    values: &[i32],
    stats: &IntegerStats,
    child_depth: u8,
    cfg: &Config,
    scratch: &mut EncodeScratch,
    out: &mut Vec<u8>,
) {
    let top = stats.top_value;
    let mut exceptions = scratch.lease_i32(values.len().saturating_sub(stats.top_count));
    let bitmap = RoaringBitmap::from_sorted_iter(values.iter().enumerate().filter_map(|(i, &v)| {
        if v != top {
            exceptions.push(v);
            // lint: allow(cast) encode side: block row index fits u32
            Some(i as u32)
        } else {
            None
        }
    }));
    let bitmap_bytes = bitmap.serialize();
    out.put_i32(top);
    // lint: allow(cast) encode side: serialized bitmap is far smaller than 4 GiB
    out.put_u32(bitmap_bytes.len() as u32);
    out.extend_from_slice(&bitmap_bytes);
    scheme::compress_int_into(&exceptions, child_depth, cfg, scratch, out, None);
    scratch.release_i32(exceptions);
}

/// Decompresses a Frequency block of `count` values into `out`, leasing the
/// exception buffer from `scratch`. The Roaring bitmap itself still
/// deserializes into fresh containers — the one allocation this scheme keeps.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &mut DecodeScratch,
    out: &mut Vec<i32>,
) -> Result<()> {
    let top = r.i32()?;
    let bitmap_len = r.u32()? as usize;
    let bitmap = RoaringBitmap::deserialize(r.take(bitmap_len)?)?;
    let mut exceptions = scratch.lease_i32(0);
    let mut positions = scratch.lease_u32(bitmap.cardinality() as usize);
    let result = (|| -> Result<()> {
        scheme::decompress_int_into(r, cfg, scratch, &mut exceptions)?;
        if bitmap.cardinality() as usize != exceptions.len() {
            return Err(Error::Corrupt("frequency exception count mismatch"));
        }
        positions.extend(bitmap.iter());
        // Splat the top value, then patch the exceptions in: both steps are
        // vectorized, with one range check over all positions up front.
        crate::simd::fill_i32(top, count, cfg.simd, out);
        if !crate::simd::patch_i32(out, &positions, &exceptions, cfg.simd) {
            return Err(Error::Corrupt("frequency exception position out of range"));
        }
        Ok(())
    })();
    scratch.release_u32(positions);
    scratch.release_i32(exceptions);
    result
}

#[cfg(test)]
mod tests {
    use crate::scheme::testutil::roundtrip_int;
    use crate::scheme::SchemeCode;

    #[test]
    fn roundtrip_dominant_value() {
        let mut values = vec![0; 10_000];
        for i in (0..10_000).step_by(97) {
            values[i] = i as i32;
        }
        let size = roundtrip_int(SchemeCode::Frequency, &values);
        assert!(size * 10 < values.len() * 4, "got {size} bytes");
    }

    #[test]
    fn roundtrip_no_exceptions() {
        roundtrip_int(SchemeCode::Frequency, &[5; 100]);
    }

    #[test]
    fn roundtrip_all_exceptions_edge() {
        // Degenerate but legal: top value appears once.
        roundtrip_int(SchemeCode::Frequency, &[1, 2, 3, 4]);
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip_int(SchemeCode::Frequency, &[]);
    }
}
