//! Dictionary with an FSST-compressed string pool (paper Figure 4: "+ FSST
//! on dictionary", a 51 % ratio improvement over plain dictionaries on
//! Public BI strings).
//!
//! Payload: `[dict_n: u32][table_len: u32][symbol table][comp_len: u32]
//! [compressed dict pool][dict lengths: dict_n × u32][child block: code
//! sequence]`.
//!
//! Decompression decodes the dictionary pool with a single FSST call, builds
//! `(offset, len)` views from the stored uncompressed lengths, then decodes
//! the code sequence exactly like [`super::dict`] (including the fused
//! RLE+Dict fast path).

use crate::config::Config;
use crate::scheme::{self, SchemeCode};
use crate::scratch::Scratch;
use crate::stats::Pass;
use crate::types::{StringArena, StringViews};
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};
use btr_fsst::SymbolTable;

/// Compresses a block as Dict+FSST from its [`Pass`], leasing the
/// compressed-pool and length buffers from `scratch`. (Symbol-table training
/// still allocates its own storage.)
pub(crate) fn compress(
    pass: &Pass<'_, StringArena>,
    child_depth: u8,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut Vec<u8>,
) {
    let mut compressed = scratch.lease::<Vec<u8>>(pass.stats.unique_bytes / 2 + 16);
    let table = btr_fsst::compress_strings(pass.dictionary(), &mut compressed);
    let mut lengths = scratch.lease::<Vec<u32>>(pass.stats.unique_count);
    // lint: allow(cast) encode side: a single string is far smaller than 4 GiB
    lengths.extend(pass.dictionary().map(|s| s.len() as u32));
    // lint: allow(cast) encode side: dictionary entry count fits u32
    out.put_u32(pass.stats.unique_count as u32);
    // lint: allow(cast) encode side: symbol table serialization is small
    out.put_u32(table.serialized_size() as u32);
    table.serialize_into(out);
    // lint: allow(cast) encode side: compressed pool is far smaller than 4 GiB
    out.put_u32(compressed.len() as u32);
    out.extend_from_slice(&compressed);
    out.put_u32_slice(&lengths);
    let stats = Some(pass.code_stats());
    scheme::compress_into(&pass.codes, child_depth, cfg, scratch, out, Some(SchemeCode::Dict), stats);
}

/// Decompresses a Dict+FSST block of `count` strings into `out`, reusing its
/// pool/view buffers and leasing the length and dictionary-view temporaries
/// from `scratch`. The symbol table deserializes onto the stack (decoding
/// builds no encoder state), so a warm decode allocates nothing.
pub fn decompress_into(
    r: &mut Reader<'_>,
    count: usize,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut StringViews,
) -> Result<()> {
    let dict_n = r.u32()? as usize;
    let table_len = r.u32()? as usize;
    let table = SymbolTable::deserialize(r.take(table_len)?)?;
    let comp_len = r.u32()? as usize;
    let compressed = r.take(comp_len)?;
    // Capacity hints only — clamp so a hostile dict_n can't force a huge
    // lease before `take` inside `u32_vec_into` rejects the stream.
    let hint = dict_n.min(r.remaining() / 4);
    let mut lengths = scratch.lease::<Vec<u32>>(hint);
    let mut dict_views = scratch.lease::<Vec<u64>>(hint);
    r.u32_vec_into(dict_n, &mut lengths)?;
    // Single FSST call for the whole dictionary pool (decompress appends).
    out.pool.clear();
    table.decompress(compressed, &mut out.pool)?;
    dict_views.reserve(dict_n);
    // Accumulate in u32 with checked adds: hostile lengths summing past
    // u32::MAX must be a corruption error, not a silently truncated view.
    let mut off = 0u32;
    for &l in lengths.iter() {
        dict_views.push(StringViews::pack(off, l));
        off = off
            .checked_add(l)
            .ok_or(Error::Corrupt("dict+fsst pool length overflow"))?;
    }
    if off as usize != out.pool.len() {
        return Err(Error::Corrupt("dict+fsst pool length mismatch"));
    }
    super::dict::decode_codes_to_views_into(r, count, cfg, &dict_views, scratch, &mut out.views)
}

#[cfg(test)]
mod tests {
    use crate::config::Config;
    use crate::scheme::testutil::{encode_str, roundtrip_str};
    use crate::scheme::SchemeCode;
    use crate::types::StringArena;

    #[test]
    fn roundtrip_city_names() {
        // The paper's Dict+FSST examples: city/street columns with shared
        // substrings and moderate cardinality.
        let cities = ["01 BRONX", "04 BRONX", "05 QUEENS", "12 QUEENS", "03 BROOKLYN"];
        let strings: Vec<&str> = (0..5_000).map(|i| cities[(i * 7) % 5]).collect();
        let size = roundtrip_str(SchemeCode::DictFsst, &strings);
        let arena = StringArena::from_strs(&strings);
        assert!(size * 20 < arena.heap_size(), "got {size} bytes");
    }

    #[test]
    fn beats_plain_dict_on_substring_rich_dictionaries() {
        // High-cardinality strings that share long substrings: the dictionary
        // pool itself is compressible, which is exactly DictFsst's case.
        let strings: Vec<String> = (0..4_000)
            .map(|i| format!("5777 E MAYO BLVD BUILDING {} PHOENIX ARIZONA", i % 2000))
            .collect();
        let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
        let arena = StringArena::from_strs(&refs);
        let cfg = Config::default();
        let plain = encode_str(SchemeCode::Dict, &arena, &cfg).len();
        let fsst = encode_str(SchemeCode::DictFsst, &arena, &cfg).len();
        assert!(fsst < plain, "dict+fsst ({fsst}) should beat dict ({plain})");
    }

    #[test]
    fn roundtrip_edge_cases() {
        roundtrip_str(SchemeCode::DictFsst, &["", "a", "", "a"]);
        roundtrip_str(SchemeCode::DictFsst, &["solo"]);
    }
}
