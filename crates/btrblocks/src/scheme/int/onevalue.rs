//! One Value: a block whose values are all identical stores just that value.

use crate::config::Config;
use crate::scratch::DecodeScratch;
use crate::writer::{Reader, WriteLe};
use crate::Result;

/// Payload: one `i32`.
pub fn compress(values: &[i32], out: &mut Vec<u8>) {
    // lint: allow(indexing) windows(2) yields exactly 2 elements
    debug_assert!(values.windows(2).all(|w| w[0] == w[1]));
    out.put_i32(values.first().copied().unwrap_or(0));
}

/// Expands the stored value `count` times into `out`, reusing its capacity.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    _cfg: &Config,
    _scratch: &mut DecodeScratch,
    out: &mut Vec<i32>,
) -> Result<()> {
    let v = r.i32()?;
    out.clear();
    out.resize(count, v);
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::scheme::testutil::roundtrip_int;
    use crate::scheme::SchemeCode;

    #[test]
    fn roundtrip() {
        // 5-byte frame header + the one value.
        assert_eq!(roundtrip_int(SchemeCode::OneValue, &[-77; 64_000]), 5 + 4);
    }

    #[test]
    fn zero_count() {
        roundtrip_int(SchemeCode::OneValue, &[]);
    }
}
