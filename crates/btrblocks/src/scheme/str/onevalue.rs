//! One Value for strings: the whole block is one repeated string.

use crate::config::Config;
use crate::scratch::DecodeScratch;
use crate::types::{StringArena, StringViews};
use crate::writer::{Reader, WriteLe};
use crate::Result;

/// Payload: `[len: u32][bytes]`.
pub fn compress(arena: &StringArena, out: &mut Vec<u8>) {
    let s: &[u8] = if arena.is_empty() { b"" } else { arena.get(0) };
    debug_assert!((0..arena.len()).all(|i| arena.get(i) == s));
    // lint: allow(cast) encode side: a single string is far smaller than 4 GiB
    out.put_u32(s.len() as u32);
    out.extend_from_slice(s);
}

/// Expands the stored string `count` times into `out`, reusing its buffers
/// (all views share one pool entry).
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    _cfg: &Config,
    _scratch: &mut DecodeScratch,
    out: &mut StringViews,
) -> Result<()> {
    let len = r.u32()?;
    let bytes = r.take(len as usize)?;
    out.pool.clear();
    out.pool.extend_from_slice(bytes);
    out.views.clear();
    out.views.resize(count, StringViews::pack(0, len));
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::scheme::testutil::roundtrip_str;
    use crate::scheme::SchemeCode;

    #[test]
    fn roundtrip() {
        // 5-byte frame header + length + bytes.
        assert_eq!(roundtrip_str(SchemeCode::OneValue, &["CABLE"; 100]), 5 + 4 + 5);
    }

    #[test]
    fn empty_string_block() {
        roundtrip_str(SchemeCode::OneValue, &["", ""]);
    }
}
