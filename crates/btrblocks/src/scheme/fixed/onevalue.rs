//! One Value: a block whose values are all identical stores just that value.
//!
//! Payload: one `V`.

use super::Value;
use crate::writer::Reader;
use crate::Result;

/// Stores the block's single value (`V::default()` for an empty block).
pub fn compress<V: Value>(values: &[V], out: &mut Vec<u8>) {
    // lint: allow(indexing) windows(2) yields exactly 2 elements
    debug_assert!(values.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()));
    V::put_slice(&[values.first().copied().unwrap_or_default()], out);
}

/// Expands the stored value `count` times into `out`, reusing its capacity.
pub fn decompress_into<V: Value>(r: &mut Reader<'_>, count: usize, out: &mut Vec<V>) -> Result<()> {
    let v = r.value::<V>()?;
    out.clear();
    out.resize(count, v);
    Ok(())
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
        roundtrips_hostile_shapes::<V>(SchemeCode::OneValue);
        truncation_is_an_error::<V>(SchemeCode::OneValue);
        for v in V::HOSTILE {
            // 5-byte frame header + the one value.
            let size = roundtrip(SchemeCode::OneValue, &[v; 1000], &Config::default());
            assert_eq!(size, 5 + V::SIZE);
        }
    }

    for_both_types!(matrix);
}
