//! FSST over the raw string concatenation (paper §5's block-decode variant).
//!
//! The whole block's strings are FSST-compressed back-to-back into one
//! buffer. Compressed per-string offsets are *not* stored: because FSST
//! decoding is stateless, decompressing the entire concatenation with a
//! single call and splitting it by the (cascade-compressed) *uncompressed*
//! string lengths reconstructs every boundary — the "50 instructions per
//! string" saving the paper describes.
//!
//! Payload: `[table_len: u32][symbol table][comp_len: u32][compressed
//! bytes][child block: uncompressed lengths (integer)]`.

use crate::config::Config;
use crate::scheme;
use crate::scratch::Scratch;
use crate::types::{StringArena, StringViews};
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};
use btr_fsst::SymbolTable;

/// Compresses `arena` with FSST, leasing the compressed-bytes and length
/// buffers from `scratch`. (Symbol-table training still allocates its own
/// storage — the allocations this scheme keeps.)
pub fn compress(
    arena: &StringArena,
    child_depth: u8,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut Vec<u8>,
) {
    let mut compressed = scratch.lease::<Vec<u8>>(arena.total_bytes() / 2 + 16);
    let table = btr_fsst::compress_strings(arena.iter(), &mut compressed);
    let mut lengths = scratch.lease::<Vec<i32>>(arena.len());
    // lint: allow(cast) encode side: a single string is far smaller than 2 GiB
    lengths.extend(arena.iter().map(|s| s.len() as i32));
    // lint: allow(cast) encode side: symbol table serialization is small
    out.put_u32(table.serialized_size() as u32);
    table.serialize_into(out);
    // lint: allow(cast) encode side: compressed pool is far smaller than 4 GiB
    out.put_u32(compressed.len() as u32);
    out.extend_from_slice(&compressed);
    scheme::compress_into(&lengths, child_depth, cfg, scratch, out, None, None);
}

/// Decompresses an FSST block of `count` strings into `out`, reusing its
/// pool/view buffers and leasing the length temporary from `scratch`. The
/// symbol table deserializes onto the stack (decoding builds no encoder
/// state), so a warm decode allocates nothing.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut StringViews,
) -> Result<()> {
    let table_len = r.u32()? as usize;
    let table = SymbolTable::deserialize(r.take(table_len)?)?;
    let comp_len = r.u32()? as usize;
    let compressed = r.take(comp_len)?;
    let mut lengths = scratch.lease::<Vec<i32>>(count);
    scheme::decompress_into(r, cfg, scratch, &mut lengths)?;
    if lengths.len() != count {
        return Err(Error::Corrupt("fsst length count mismatch"));
    }
    // One decompression call for the whole block (decompress appends).
    out.pool.clear();
    table.decompress(compressed, &mut out.pool)?;
    out.views.clear();
    out.views.reserve(count);
    // Accumulate in u32 with checked adds: hostile lengths summing past
    // u32::MAX must be a corruption error, not a silently truncated view.
    let mut off = 0u32;
    for &l in lengths.iter() {
        let len =
            u32::try_from(l).map_err(|_| Error::Corrupt("negative fsst string length"))?;
        out.views.push(StringViews::pack(off, len));
        off = off
            .checked_add(len)
            .ok_or(Error::Corrupt("fsst pool length overflow"))?;
    }
    if off as usize != out.pool.len() {
        return Err(Error::Corrupt("fsst pool length mismatch"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::scheme::testutil::roundtrip_str;
    use crate::scheme::SchemeCode;

    #[test]
    fn roundtrip_urls() {
        let strings: Vec<String> = (0..2000)
            .map(|i| format!("https://example.com/products/category-{}/item-{}", i % 7, i))
            .collect();
        let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
        let size = roundtrip_str(SchemeCode::Fsst, &refs);
        let raw: usize = strings.iter().map(|s| s.len() + 4).sum();
        assert!(size * 2 < raw, "FSST should halve URLs: {size} vs {raw}");
    }

    #[test]
    fn roundtrip_empty_and_mixed() {
        roundtrip_str(SchemeCode::Fsst, &["", "one", "", "two", ""]);
        roundtrip_str(SchemeCode::Fsst, &[""]);
    }

    #[test]
    fn roundtrip_binary_strings() {
        roundtrip_str(SchemeCode::Fsst, &["\u{0}\u{1}", "ÿþý", "normal"]);
    }
}
