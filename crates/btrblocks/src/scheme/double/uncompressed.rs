//! Raw double storage — the depth-0 fallback.

use crate::config::Config;
use crate::scratch::DecodeScratch;
use crate::writer::{Reader, WriteLe};
use crate::Result;

/// Payload: `count × f64` little-endian.
pub fn compress(values: &[f64], out: &mut Vec<u8>) {
    out.put_f64_slice(values);
}

/// Reads `count` raw doubles into `out`, reusing its capacity.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    _cfg: &Config,
    _scratch: &mut DecodeScratch,
    out: &mut Vec<f64>,
) -> Result<()> {
    r.f64_vec_into(count, out)
}

#[cfg(test)]
mod tests {
    use crate::config::Config;
    use crate::scheme::testutil::roundtrip_double;
    use crate::scheme::SchemeCode;

    #[test]
    fn roundtrip_bitwise() {
        let values = [0.0, -0.0, f64::NAN, f64::INFINITY, 1.25e-300];
        roundtrip_double(SchemeCode::Uncompressed, &values, &Config::default());
    }
}
