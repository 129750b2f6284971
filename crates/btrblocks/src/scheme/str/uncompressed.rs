//! Raw string storage: offsets + byte pool.

use crate::config::Config;
use crate::scratch::DecodeScratch;
use crate::types::{StringArena, StringViews};
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};

/// Payload: `[pool_len: u32][pool bytes][offsets: (count + 1) × u32]`.
pub fn compress(arena: &StringArena, out: &mut Vec<u8>) {
    // lint: allow(cast) encode side: arena pools are far smaller than 4 GiB
    out.put_u32(arena.bytes.len() as u32);
    out.extend_from_slice(&arena.bytes);
    out.put_u32_slice(&arena.offsets);
}

/// Reads `count` raw strings into `out`, reusing its pool and view buffers
/// and leasing the offset temporary from `scratch`.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    _cfg: &Config,
    scratch: &mut DecodeScratch,
    out: &mut StringViews,
) -> Result<()> {
    let pool_len = r.u32()? as usize;
    let pool_bytes = r.take(pool_len)?;
    out.pool.clear();
    out.pool.extend_from_slice(pool_bytes);
    let mut offsets = scratch.lease_u32(count + 1);
    let result = (|| -> Result<()> {
        r.u32_vec_into(count + 1, &mut offsets)?;
        out.views.clear();
        out.views.reserve(count);
        for w in offsets.windows(2) {
            // lint: allow(indexing) windows(2) yields exactly 2 elements
            let (start, end) = (w[0], w[1]);
            if end < start || end as usize > pool_len {
                return Err(Error::Corrupt("string offsets not monotone"));
            }
            out.views.push(StringViews::pack(start, end - start));
        }
        Ok(())
    })();
    scratch.release_u32(offsets);
    result
}

#[cfg(test)]
mod tests {
    use crate::config::Config;
    use crate::scheme::testutil::{decode_str, encode_str, roundtrip_str};
    use crate::scheme::SchemeCode;
    use crate::types::StringArena;

    #[test]
    fn roundtrip() {
        roundtrip_str(SchemeCode::Uncompressed, &["hello", "", "wörld"]);
    }

    #[test]
    fn corrupt_offsets_error() {
        let cfg = Config::default();
        let arena = StringArena::from_strs(&["ab", "cd"]);
        let mut buf = encode_str(SchemeCode::Uncompressed, &arena, &cfg);
        // offsets live at the end; make them non-monotone.
        let n = buf.len();
        buf[n - 4..].copy_from_slice(&1u32.to_le_bytes());
        assert!(decode_str(&buf, &cfg).is_err());
    }
}
