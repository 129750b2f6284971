//! Raw storage — the depth-0 fallback and last-resort scheme.
//!
//! Payload: `count × V` little-endian.

use super::Value;
use crate::writer::Reader;
use crate::Result;

/// Appends `values` raw.
pub fn compress<V: Value>(values: &[V], out: &mut Vec<u8>) {
    V::put_slice(values, out);
}

/// Reads `count` raw values into `out`, reusing its capacity.
pub fn decompress_into<V: Value>(r: &mut Reader<'_>, count: usize, out: &mut Vec<V>) -> Result<()> {
    r.vec_into(count, out)
}

#[cfg(test)]
mod tests {
    use super::super::testmatrix::{
        for_both_types, roundtrips_hostile_shapes, truncation_is_an_error, Hostile,
    };
    use crate::config::Config;
    use crate::scheme::testutil::roundtrip;
    use crate::scheme::SchemeCode;

    fn matrix<V: Hostile>() {
        roundtrips_hostile_shapes::<V>(SchemeCode::Uncompressed);
        truncation_is_an_error::<V>(SchemeCode::Uncompressed);
        // 5-byte frame header + raw payload.
        let size = roundtrip(SchemeCode::Uncompressed, &V::HOSTILE, &Config::default());
        assert_eq!(size, 5 + 8 * V::SIZE);
    }

    for_both_types!(matrix);
}
