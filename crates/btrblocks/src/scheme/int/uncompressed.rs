//! Raw integer storage — the depth-0 fallback and last-resort scheme.

use crate::config::Config;
use crate::scratch::DecodeScratch;
use crate::writer::{Reader, WriteLe};
use crate::Result;

/// Payload: `count × i32` little-endian.
pub fn compress(values: &[i32], out: &mut Vec<u8>) {
    out.put_i32_slice(values);
}

/// Reads `count` raw integers into `out`, reusing its capacity.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    _cfg: &Config,
    _scratch: &mut DecodeScratch,
    out: &mut Vec<i32>,
) -> Result<()> {
    r.i32_vec_into(count, out)
}

#[cfg(test)]
mod tests {
    use crate::config::Config;
    use crate::scheme::testutil::{decode_int, encode_int, roundtrip_int};
    use crate::scheme::SchemeCode;

    #[test]
    fn roundtrip() {
        let values = [i32::MIN, -1, 0, 1, i32::MAX];
        // 5-byte frame header + raw payload.
        assert_eq!(roundtrip_int(SchemeCode::Uncompressed, &values), 5 + values.len() * 4);
    }

    #[test]
    fn truncated_errors() {
        let cfg = Config::default();
        let bytes = encode_int(SchemeCode::Uncompressed, &[1, 2, 3], &cfg);
        assert!(decode_int(&bytes[..5 + 8], &cfg).is_err());
    }
}
