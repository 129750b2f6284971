//! One Value for doubles: the whole block is a single bit pattern.

use crate::config::Config;
use crate::scratch::DecodeScratch;
use crate::writer::{Reader, WriteLe};
use crate::Result;

/// Payload: one `f64`.
pub fn compress(values: &[f64], out: &mut Vec<u8>) {
    // lint: allow(indexing) windows(2) yields exactly 2 elements
    debug_assert!(values.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()));
    out.put_f64(values.first().copied().unwrap_or(0.0));
}

/// Expands the stored value `count` times into `out`, reusing its capacity.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    _cfg: &Config,
    _scratch: &mut DecodeScratch,
    out: &mut Vec<f64>,
) -> Result<()> {
    let v = r.f64()?;
    out.clear();
    out.resize(count, v);
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::config::Config;
    use crate::scheme::testutil::roundtrip_double;
    use crate::scheme::SchemeCode;

    #[test]
    fn roundtrip_including_nan() {
        for v in [0.0f64, -0.0, f64::NAN, 123.456] {
            // 5-byte frame header + the one value.
            let size = roundtrip_double(SchemeCode::OneValue, &[v; 1000], &Config::default());
            assert_eq!(size, 5 + 8);
        }
    }
}
