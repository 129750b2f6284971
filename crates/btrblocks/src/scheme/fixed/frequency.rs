//! Frequency encoding (the paper's adaptation of DB2 BLU's scheme).
//!
//! Real-world columns often have one dominant value with exponentially rarer
//! exceptions. The block stores (1) the top value, (2) a Roaring bitmap
//! marking which positions are *not* the top value, and (3) the exception
//! values as a cascaded child block.
//!
//! Payload: `[top: V][bitmap_len: u32][roaring bitmap][child block:
//! exceptions (V)]`.

use super::Value;
use crate::config::Config;
use crate::scheme;
use crate::scratch::Scratch;
use crate::simd;
use crate::stats::NumericStats;
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};
use btr_roaring::RoaringBitmap;

/// Compresses `values` as Frequency encoding.
///
/// Takes the selection layer's one-pass `stats` by reference (the dominant
/// value was already found there) instead of re-collecting them, and leases
/// the exception array from `scratch`.
pub fn compress<V: Value>(
    values: &[V],
    stats: &NumericStats<V>,
    child_depth: u8,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut Vec<u8>,
) {
    let top = stats.top_value.to_bits();
    let mut exceptions = scratch.lease::<Vec<V>>(values.len().saturating_sub(stats.top_count));
    let bitmap =
        RoaringBitmap::from_sorted_iter(values.iter().enumerate().filter_map(|(i, &v)| {
            if v.to_bits() != top {
                exceptions.push(v);
                // lint: allow(cast) encode side: block row index fits u32
                Some(i as u32)
            } else {
                None
            }
        }));
    let bitmap_bytes = bitmap.serialize();
    V::put_slice(&[stats.top_value], out);
    // lint: allow(cast) encode side: serialized bitmap is far smaller than 4 GiB
    out.put_u32(bitmap_bytes.len() as u32);
    out.extend_from_slice(&bitmap_bytes);
    scheme::compress_into(&exceptions, child_depth, cfg, scratch, out, None);
}

/// Decompresses a Frequency block of `count` values into `out`, leasing the
/// exception buffer from `scratch`. The Roaring bitmap itself still
/// deserializes into fresh containers — the one allocation this scheme keeps.
pub fn decompress_into<V: Value>(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut Vec<V>,
) -> Result<()> {
    let top: V = r.value()?;
    let bitmap_len = r.u32()? as usize;
    let bitmap = RoaringBitmap::deserialize(r.take(bitmap_len)?)?;
    let mut exceptions = scratch.lease::<Vec<V>>(0);
    let mut positions = scratch.lease::<Vec<u32>>(bitmap.cardinality() as usize);
    scheme::decompress_into(r, cfg, scratch, &mut exceptions)?;
    if bitmap.cardinality() as usize != exceptions.len() {
        return Err(Error::Corrupt("frequency exception count mismatch"));
    }
    positions.extend(bitmap.iter());
    // Splat the top value (one run of `count`), then patch the exceptions
    // in: both steps are vectorized, with one range check over all
    // positions up front.
    // lint: allow(cast) count came off a u32 frame header
    simd::rle_decode_into(&[top], &[count as u32], count, cfg.simd, out);
    if !simd::patch(out, &positions, &exceptions, cfg.simd) {
        return Err(Error::Corrupt("frequency exception position out of range"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::testmatrix::{
        for_both_types, roundtrips_hostile_shapes, truncation_is_an_error, Hostile,
    };
    use super::*;
    use crate::scheme::testutil::{decode, encode, roundtrip};
    use crate::scheme::SchemeCode;

    fn matrix<V: Hostile>() {
        roundtrips_hostile_shapes::<V>(SchemeCode::Frequency);
        truncation_is_an_error::<V>(SchemeCode::Frequency);
        let cfg = Config::default();
        let [top, other] = [V::HOSTILE[1], V::HOSTILE[2]];

        let mut dominant = vec![top; 10_000];
        for i in (0..10_000).step_by(97) {
            dominant[i] = V::HOSTILE[i % 6 + 2];
        }
        let size = roundtrip(SchemeCode::Frequency, &dominant, &cfg);
        assert!(size * 10 < dominant.len() * V::SIZE, "got {size} bytes");
        // No exceptions at all, and the degenerate-but-legal all-exceptions
        // block where the top value appears once.
        roundtrip(SchemeCode::Frequency, &[top; 100], &cfg);
        roundtrip(SchemeCode::Frequency, &V::HOSTILE, &cfg);

        // Hand-craft: 2 values, exception `positions`, uncompressed
        // `exceptions`.
        let frame = |positions: &[u32], exceptions: &[V]| {
            let bitmap = RoaringBitmap::from_sorted_iter(positions.iter().copied()).serialize();
            let mut buf = vec![SchemeCode::Frequency.as_u8()];
            buf.put_u32(2);
            V::put_slice(&[top], &mut buf);
            buf.put_u32(bitmap.len() as u32);
            buf.extend(bitmap);
            buf.extend(encode(SchemeCode::Uncompressed, exceptions, &cfg));
            decode::<V>(&buf, &cfg)
        };
        assert_eq!(frame(&[1], &[other]).unwrap().len(), 2);
        assert_eq!(
            frame(&[1], &[]).unwrap_err(),
            Error::Corrupt("frequency exception count mismatch")
        );
        assert_eq!(
            frame(&[2], &[other]).unwrap_err(),
            Error::Corrupt("frequency exception position out of range")
        );
    }

    for_both_types!(matrix);
}
