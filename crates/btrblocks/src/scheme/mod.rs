//! The encoding scheme pool, selection algorithm, and cascade engine.
//!
//! Every compressed block is framed as `[scheme code: u8][count: u32][payload]`.
//! Scheme payloads embed *child blocks* with the same framing (e.g. RLE's
//! value and run-length arrays), which is how cascading works: compression
//! recursively calls [`compress_into`] / [`compress_str_into`] with a
//! decremented depth budget, and decompression recurses by reading the child
//! frames. Depth 0 always yields `Uncompressed`, bounding the recursion
//! (paper §3.2).
//!
//! Integers and doubles share one implementation, generic over the sealed
//! [`fixed::Value`] trait (`i32`, `f64`): the five schemes both types have
//! live in [`fixed`], dispatch is a `match` on [`SchemeCode`], and a code
//! outside the shared five goes through the type's own hooks ([`int`]:
//! FastPFOR and FastBP128; [`double`]: Pseudodecimal). Strings are their own
//! path ([`mod@str`]).
//!
//! Scheme *selection* (paper Listing 1) lives in [`pick`] / [`pick_str`]:
//! collect full-block statistics, filter non-viable schemes, compress a small
//! sample with each survivor, and keep the best observed ratio. Both
//! selection paths share one candidate loop (`run_selection`); statistics
//! are collected **once** per (values, cascade level) and passed by
//! reference into viability checks, analytic estimates, and the chosen
//! scheme's compressor.
//!
//! Every codec entry point threads one [`Scratch`] arena through the whole
//! pipeline so sample gathers, candidate trial buffers, and scheme
//! side-arrays are leased rather than allocated.
//! Each path has exactly three: a selecting compressor, a forced-scheme
//! compressor, and a decompressor. The allocate-for-me conveniences live one
//! level up, in [`crate::block`].

pub mod double;
pub mod filter;
pub mod fixed;
pub mod int;
pub mod str;

use crate::config::Config;
use crate::sampling;
use crate::scratch::Scratch;
use crate::stats::{NumericStats, StringStats};
use crate::types::{ColumnType, StringArena, StringViews};
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};
use fixed::Value;

/// Reads and validates one framed block header: `[scheme code: u8][count: u32]`.
///
/// Centralizes the `count > cfg.max_block_values` cap check that every
/// cascade level must apply before trusting a length field enough to size
/// buffers from it.
pub fn read_frame_header(r: &mut Reader<'_>, cfg: &Config) -> Result<(SchemeCode, usize)> {
    let code = SchemeCode::from_u8(r.u8()?)?;
    let count = r.u32()? as usize;
    if count > cfg.max_block_values {
        return Err(Error::Corrupt("block claims more values than max_block_values"));
    }
    Ok((code, count))
}

/// Identifies an encoding scheme in the serialized format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SchemeCode {
    /// Raw values, no compression. The depth-0 fallback.
    Uncompressed = 0,
    /// A single value for the entire block.
    OneValue = 1,
    /// Run-length encoding; cascades into values and run lengths.
    Rle = 2,
    /// Dictionary encoding; cascades into the code sequence.
    Dict = 3,
    /// One dominant top value + Roaring exception bitmap (paper's adaptation
    /// of DB2 BLU frequency encoding); cascades into the exception values.
    Frequency = 4,
    /// FastPFOR (patched FOR bit-packing), integers only.
    FastPfor = 5,
    /// FastBP128 (plain vertical bit-packing), integers only.
    FastBp128 = 6,
    /// Pseudodecimal encoding, doubles only; cascades into digit and
    /// exponent integer columns.
    Pseudodecimal = 7,
    /// FSST over the raw string concatenation; cascades into string lengths.
    Fsst = 8,
    /// Dictionary whose string pool is FSST-compressed; cascades into codes.
    DictFsst = 9,
}

impl SchemeCode {
    /// Parses a scheme code byte.
    pub fn from_u8(v: u8) -> Result<Self> {
        Ok(match v {
            0 => SchemeCode::Uncompressed,
            1 => SchemeCode::OneValue,
            2 => SchemeCode::Rle,
            3 => SchemeCode::Dict,
            4 => SchemeCode::Frequency,
            5 => SchemeCode::FastPfor,
            6 => SchemeCode::FastBp128,
            7 => SchemeCode::Pseudodecimal,
            8 => SchemeCode::Fsst,
            9 => SchemeCode::DictFsst,
            other => return Err(Error::InvalidScheme(other)),
        })
    }

    /// The wire byte for this scheme (inverse of [`SchemeCode::from_u8`]).
    #[inline]
    pub fn as_u8(self) -> u8 {
        // lint: allow(cast) repr(u8) enum with explicit discriminants
        self as u8
    }

    /// Short name for reports (matches the paper's labels).
    pub fn name(self) -> &'static str {
        match self {
            SchemeCode::Uncompressed => "Uncompressed",
            SchemeCode::OneValue => "OneValue",
            SchemeCode::Rle => "RLE",
            SchemeCode::Dict => "Dictionary",
            SchemeCode::Frequency => "Frequency",
            SchemeCode::FastPfor => "FastPFOR",
            SchemeCode::FastBp128 => "FastBP128",
            SchemeCode::Pseudodecimal => "Pseudodec.",
            SchemeCode::Fsst => "FSST",
            SchemeCode::DictFsst => "Dict+FSST",
        }
    }

    /// The complete default pool (paper Table 1 / Figure 3).
    pub fn full_pool() -> Vec<SchemeCode> {
        vec![
            SchemeCode::Uncompressed,
            SchemeCode::OneValue,
            SchemeCode::Rle,
            SchemeCode::Dict,
            SchemeCode::Frequency,
            SchemeCode::FastPfor,
            SchemeCode::FastBp128,
            SchemeCode::Pseudodecimal,
            SchemeCode::Fsst,
            SchemeCode::DictFsst,
        ]
    }

    /// Schemes applicable to `column_type` (Figure 3's decision trees).
    pub fn applicable(column_type: ColumnType) -> &'static [SchemeCode] {
        match column_type {
            ColumnType::Integer => &[
                SchemeCode::OneValue,
                SchemeCode::Rle,
                SchemeCode::Dict,
                SchemeCode::Frequency,
                SchemeCode::FastPfor,
                SchemeCode::FastBp128,
                SchemeCode::Uncompressed,
            ],
            ColumnType::Double => &[
                SchemeCode::OneValue,
                SchemeCode::Rle,
                SchemeCode::Dict,
                SchemeCode::Frequency,
                SchemeCode::Pseudodecimal,
                SchemeCode::Uncompressed,
            ],
            ColumnType::String => &[
                SchemeCode::OneValue,
                SchemeCode::Dict,
                SchemeCode::DictFsst,
                SchemeCode::Fsst,
                SchemeCode::Uncompressed,
            ],
        }
    }
}

/// One scheme's estimated compression ratio during selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The candidate scheme.
    pub code: SchemeCode,
    /// Estimated ratio: `uncompressed sample bytes / compressed sample bytes`.
    pub ratio: f64,
}

/// The outcome of scheme selection for one block.
#[derive(Debug, Clone)]
pub struct Selection {
    /// The chosen scheme.
    pub code: SchemeCode,
    /// All candidate estimates (viable schemes only).
    pub estimates: Vec<Estimate>,
}

/// The shared candidate loop of scheme selection (paper Listing 1's outer
/// loop), generic over the per-type work: iterate the type's applicable
/// schemes in their fixed order, skip `Uncompressed`, disallowed, and
/// excluded codes, ask `ratio_of` for an estimate (`None` = not viable), and
/// keep the best ratio above `Uncompressed`'s baseline of 1.0.
///
/// `estimates` is only populated for the public `pick_*` API; the internal
/// cascade paths pass `None` and skip the bookkeeping entirely.
fn run_selection(
    ty: ColumnType,
    cfg: &Config,
    exclude: Option<SchemeCode>,
    mut ratio_of: impl FnMut(SchemeCode) -> Option<f64>,
    mut estimates: Option<&mut Vec<Estimate>>,
) -> SchemeCode {
    let mut best = Estimate { code: SchemeCode::Uncompressed, ratio: 1.0 };
    for &code in SchemeCode::applicable(ty) {
        if code == SchemeCode::Uncompressed || !cfg.allows(code) || Some(code) == exclude {
            continue;
        }
        let Some(ratio) = ratio_of(code) else { continue };
        if let Some(list) = estimates.as_deref_mut() {
            list.push(Estimate { code, ratio });
        }
        if ratio > best.ratio {
            best = Estimate { code, ratio };
        }
    }
    best.code
}

/// Capacity hint for a sample gather: the whole block when it is small
/// enough to be returned as a single window, else the configured sample size.
fn sample_cap(n: usize, cfg: &Config) -> usize {
    let total = cfg.sample_runs * cfg.sample_run_len;
    if total == 0 {
        n
    } else {
        n.min(total)
    }
}

// ------------------------------------------------- integers and doubles

/// One statistics pass over `values` through a count map leased from
/// `scratch`.
fn pooled_stats<V: Value>(values: &[V], scratch: &Scratch) -> NumericStats<V> {
    NumericStats::collect_with_map(values, &mut scratch.lease(0))
}

/// Compresses an integer or double block with automatic scheme selection,
/// appending a framed block to `out` and leasing all temporaries from
/// `scratch`. Returns the root scheme chosen. This is the cascade's
/// workhorse: statistics are collected once (into a pooled map) and shared by
/// selection and the chosen scheme's compressor.
///
/// `exclude` bans one scheme from the *root* choice. Schemes compressing their
/// own outputs use it: a dictionary's code sequence must not immediately pick
/// Dictionary again — the inner dictionary would be an identity mapping that
/// burns cascade depth without shrinking anything.
pub fn compress_into<V: Value>(
    values: &[V],
    depth: u8,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut Vec<u8>,
    exclude: Option<SchemeCode>,
) -> SchemeCode {
    if depth == 0 || values.is_empty() {
        emit(SchemeCode::Uncompressed, values, None, depth, cfg, scratch, out);
        return SchemeCode::Uncompressed;
    }
    let stats = pooled_stats(values, scratch);
    let code = select(values, depth, cfg, exclude, &stats, scratch, None);
    emit(code, values, Some(&stats), depth, cfg, scratch, out);
    code
}

/// Selects the best scheme for an integer or double block (paper Listing 1).
pub fn pick<V: Value>(values: &[V], depth: u8, cfg: &Config) -> Selection {
    if depth == 0 || values.is_empty() {
        return trivial_selection();
    }
    let stats = NumericStats::collect(values);
    let mut estimates = Vec::new();
    let code = select(values, depth, cfg, None, &stats, &Scratch::new(), Some(&mut estimates));
    Selection { code, estimates }
}

/// [`pick`] for an integer block.
pub fn pick_int(values: &[i32], depth: u8, cfg: &Config) -> Selection {
    pick(values, depth, cfg)
}

/// [`pick`] for a double block.
pub fn pick_double(values: &[f64], depth: u8, cfg: &Config) -> Selection {
    pick(values, depth, cfg)
}

/// Selection body shared by [`pick`] (which records estimates) and
/// [`compress_into`] (which does not): OneValue shortcut, sample gather into
/// leased buffers, then the generic candidate loop with trial compressions
/// reusing one leased output buffer.
fn select<V: Value>(
    values: &[V],
    depth: u8,
    cfg: &Config,
    exclude: Option<SchemeCode>,
    stats: &NumericStats<V>,
    scratch: &Scratch,
    mut estimates: Option<&mut Vec<Estimate>>,
) -> SchemeCode {
    if stats.unique_count == 1 && cfg.allows(SchemeCode::OneValue) {
        // Guaranteed optimal; skip sampling entirely.
        if let Some(list) = estimates.as_deref_mut() {
            list.push(Estimate { code: SchemeCode::OneValue, ratio: values.len() as f64 });
        }
        return SchemeCode::OneValue;
    }
    let mut ranges = scratch.lease::<Vec<(usize, usize)>>(cfg.sample_runs);
    sampling::sample_ranges_into(values.len(), cfg.sample_runs, cfg.sample_run_len, depth as u64, &mut ranges);
    let mut sample = scratch.lease::<Vec<V>>(sample_cap(values.len(), cfg));
    sampling::gather_into(values, &ranges, &mut sample);
    let sample_bytes = (sample.len() * V::SIZE) as f64;
    let mut trial = scratch.lease::<Vec<u8>>(sample.len() * V::SIZE + 64);
    run_selection(
        V::TYPE,
        cfg,
        exclude,
        |code| {
            if !fixed::viable(code, stats, &sample) {
                return None;
            }
            Some(if code == SchemeCode::Dict && cfg.analytic_estimates {
                dict_ratio(values.len(), stats.unique_count, values.len() * V::SIZE, stats.unique_count * V::SIZE)
            } else {
                trial.clear();
                emit(code, &sample, None, depth, cfg, scratch, &mut trial);
                let sampled = sample_bytes / trial.len() as f64;
                if code == SchemeCode::Rle && cfg.analytic_estimates {
                    // Sample runs are at most `sample_run_len` values long, so the
                    // sample systematically underestimates RLE on extreme-run
                    // data; the full-block run count gives a conservative floor
                    // (it ignores cascade gains on the run arrays).
                    sampled.max(rle_floor(values.len(), stats.average_run_length, V::SIZE))
                } else {
                    sampled
                }
            })
        },
        estimates,
    )
}

/// Compresses an integer or double block with a forced root scheme (used by
/// ablation benchmarks and the Figure 5/6 harnesses), leasing all temporaries
/// from `scratch`.
pub fn compress_with_into<V: Value>(
    code: SchemeCode,
    values: &[V],
    depth: u8,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut Vec<u8>,
) {
    emit(code, values, None, depth, cfg, scratch, out);
}

/// Writes the frame header and dispatches to the scheme compressor: the five
/// shared schemes by `match`, anything else through the type's own hook.
///
/// `stats` carries the selection layer's one-pass statistics into schemes
/// that need them (Frequency's top value); a forced compression without
/// prior selection passes `None` and Frequency's are collected here.
fn emit<V: Value>(
    code: SchemeCode,
    values: &[V],
    stats: Option<&NumericStats<V>>,
    depth: u8,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut Vec<u8>,
) {
    let code = if depth == 0 || values.is_empty() { SchemeCode::Uncompressed } else { code };
    out.put_u8(code.as_u8());
    // lint: allow(cast) encode side: block length is capped at max_block_values
    out.put_u32(values.len() as u32);
    let child_depth = depth.saturating_sub(1);
    match code {
        SchemeCode::Uncompressed => fixed::uncompressed::compress(values, out),
        SchemeCode::OneValue => fixed::onevalue::compress(values, out),
        SchemeCode::Rle => fixed::rle::compress(values, child_depth, cfg, scratch, out),
        SchemeCode::Dict => fixed::dict::compress(values, child_depth, cfg, scratch, out),
        SchemeCode::Frequency => match stats {
            Some(stats) => fixed::frequency::compress(values, stats, child_depth, cfg, scratch, out),
            None => {
                let stats = pooled_stats(values, scratch);
                fixed::frequency::compress(values, &stats, child_depth, cfg, scratch, out)
            }
        },
        own => V::emit_own(own, values, child_depth, cfg, scratch, out),
    }
}

/// Decompresses one framed integer or double block from `r` into `out`
/// (cleared first), leasing cascade temporaries from `scratch` instead of
/// allocating.
pub fn decompress_into<V: Value>(
    r: &mut Reader<'_>,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut Vec<V>,
) -> Result<()> {
    let (code, count) = read_frame_header(r, cfg)?;
    match code {
        SchemeCode::Uncompressed => fixed::uncompressed::decompress_into(r, count, out),
        SchemeCode::OneValue => fixed::onevalue::decompress_into(r, count, out),
        SchemeCode::Rle => fixed::rle::decompress_into(r, count, cfg, scratch, out),
        SchemeCode::Dict => fixed::dict::decompress_into(r, count, cfg, scratch, out),
        SchemeCode::Frequency => fixed::frequency::decompress_into(r, count, cfg, scratch, out),
        own => V::decode_own(own, r, count, cfg, scratch, out),
    }
}

// ------------------------------------------------------------------- strings

/// Compresses a string block with automatic scheme selection, leasing
/// temporaries from `scratch`, with statistics collected once and shared (see
/// [`compress_into`]).
/// (String stats key a map by borrowed string slices, whose lifetime ties it
/// to `arena` — that map still allocates; the sample arena, trial buffer, and
/// scheme side-arrays are pooled.)
pub fn compress_str_into(
    arena: &StringArena,
    depth: u8,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut Vec<u8>,
) -> SchemeCode {
    if depth == 0 || arena.is_empty() {
        emit_str(SchemeCode::Uncompressed, arena, depth, cfg, scratch, out);
        return SchemeCode::Uncompressed;
    }
    let stats = StringStats::collect(arena);
    let code = select_str(arena, depth, cfg, &stats, scratch, None);
    emit_str(code, arena, depth, cfg, scratch, out);
    code
}

/// Selects the best scheme for a string block.
pub fn pick_str(arena: &StringArena, depth: u8, cfg: &Config) -> Selection {
    if depth == 0 || arena.is_empty() {
        return trivial_selection();
    }
    let stats = StringStats::collect(arena);
    let mut estimates = Vec::new();
    let code = select_str(arena, depth, cfg, &stats, &Scratch::new(), Some(&mut estimates));
    Selection { code, estimates }
}

/// Selection body for strings (see `select`).
fn select_str(
    arena: &StringArena,
    depth: u8,
    cfg: &Config,
    stats: &StringStats,
    scratch: &Scratch,
    mut estimates: Option<&mut Vec<Estimate>>,
) -> SchemeCode {
    if stats.unique_count == 1 && cfg.allows(SchemeCode::OneValue) {
        if let Some(list) = estimates.as_deref_mut() {
            list.push(Estimate { code: SchemeCode::OneValue, ratio: arena.len() as f64 });
        }
        return SchemeCode::OneValue;
    }
    let mut ranges = scratch.lease::<Vec<(usize, usize)>>(cfg.sample_runs);
    sampling::sample_ranges_into(arena.len(), cfg.sample_runs, cfg.sample_run_len, depth as u64, &mut ranges);
    let mut sample = scratch.lease::<StringArena>(0);
    sampling::gather_str_into(arena, &ranges, &mut sample);
    let sample_bytes = sample.heap_size() as f64;
    let mut trial = scratch.lease::<Vec<u8>>(sample.heap_size() + 64);
    run_selection(
        ColumnType::String,
        cfg,
        None,
        |code| {
            if !str::viable(code, stats) {
                return None;
            }
            Some(if code == SchemeCode::Dict && cfg.analytic_estimates {
                dict_ratio(
                    arena.len(),
                    stats.unique_count,
                    stats.total_bytes + 4 * (arena.len() + 1),
                    stats.unique_bytes + 4 * (stats.unique_count + 1),
                )
            } else if code == SchemeCode::DictFsst && cfg.analytic_estimates {
                // Analytic dictionary estimate with an FSST factor measured on
                // the sample's distinct strings; a dictionary built from the
                // sample alone would be dominated by symbol-table overhead.
                let mut seen = std::collections::HashSet::new();
                let distinct: Vec<&[u8]> = sample.iter().filter(|s| seen.insert(*s)).collect();
                let table = btr_fsst::SymbolTable::train(&distinct);
                let distinct_bytes: usize = distinct.iter().map(|s| s.len()).sum();
                let compressed_bytes: usize = distinct.iter().map(|s| table.compressed_size(s)).sum();
                let factor = if distinct_bytes == 0 {
                    1.0
                } else {
                    compressed_bytes as f64 / distinct_bytes as f64
                };
                let pool = (stats.unique_bytes as f64 * factor) as usize
                    + table.serialized_size()
                    + 4 * (stats.unique_count + 1);
                dict_ratio(
                    arena.len(),
                    stats.unique_count,
                    stats.total_bytes + 4 * (arena.len() + 1),
                    pool,
                )
            } else {
                trial.clear();
                emit_str(code, &sample, depth, cfg, scratch, &mut trial);
                sample_bytes / trial.len() as f64
            })
        },
        estimates,
    )
}

/// Compresses a string block with a forced root scheme, leasing all
/// temporaries from `scratch`.
pub fn compress_str_with_into(
    code: SchemeCode,
    arena: &StringArena,
    depth: u8,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut Vec<u8>,
) {
    emit_str(code, arena, depth, cfg, scratch, out);
}

/// Writes the frame header and dispatches to the scheme compressor.
fn emit_str(
    code: SchemeCode,
    arena: &StringArena,
    depth: u8,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut Vec<u8>,
) {
    let code = if depth == 0 || arena.is_empty() { SchemeCode::Uncompressed } else { code };
    out.put_u8(code.as_u8());
    // lint: allow(cast) encode side: block length is capped at max_block_values
    out.put_u32(arena.len() as u32);
    let child_depth = depth.saturating_sub(1);
    match code {
        SchemeCode::Uncompressed => str::uncompressed::compress(arena, out),
        SchemeCode::OneValue => str::onevalue::compress(arena, out),
        SchemeCode::Dict => str::dict::compress(arena, child_depth, cfg, scratch, out),
        SchemeCode::DictFsst => str::dict_fsst::compress(arena, child_depth, cfg, scratch, out),
        SchemeCode::Fsst => str::fsst::compress(arena, child_depth, cfg, scratch, out),
        _ => unreachable!("scheme {code:?} is not a string scheme"),
    }
}

/// Decompresses one framed string block from `r` into `out` (its pool and
/// views are cleared first), leasing cascade temporaries from `scratch`.
pub fn decompress_str_into(
    r: &mut Reader<'_>,
    cfg: &Config,
    scratch: &Scratch,
    out: &mut StringViews,
) -> Result<()> {
    let (code, count) = read_frame_header(r, cfg)?;
    match code {
        SchemeCode::Uncompressed => str::uncompressed::decompress_into(r, count, cfg, scratch, out),
        SchemeCode::OneValue => str::onevalue::decompress_into(r, count, cfg, scratch, out),
        SchemeCode::Dict => str::dict::decompress_into(r, count, cfg, scratch, out),
        SchemeCode::DictFsst => str::dict_fsst::decompress_into(r, count, cfg, scratch, out),
        SchemeCode::Fsst => str::fsst::decompress_into(r, count, cfg, scratch, out),
        other => Err(Error::InvalidScheme(other.as_u8())),
    }
}

/// Analytic dictionary compression-ratio estimate from full-block statistics.
///
/// A 1 % sample of a moderate-cardinality column (say 5 000 distinct values
/// in a 64 000-value block) contains mostly singletons, so compressing the
/// sample with a dictionary wildly underestimates the real benefit. Unique
/// counts from the full-block statistics pass are cheap and exact, so — like
/// the reference implementation — Dictionary is estimated analytically:
/// `n × value_size / (unique × value_size + n × code_bytes)`.
fn dict_ratio(n: usize, unique: usize, total_value_bytes: usize, unique_value_bytes: usize) -> f64 {
    if n == 0 || unique == 0 {
        return 0.0;
    }
    let code_bits = (usize::BITS - (unique - 1).max(1).leading_zeros()).max(1) as f64;
    let compressed = unique_value_bytes as f64 + n as f64 * code_bits / 8.0;
    total_value_bytes as f64 / compressed
}

/// Conservative analytic RLE ratio from the exact full-block run count:
/// each run costs its value plus a 4-byte length, ignoring any cascade gain
/// on the run arrays (hence a floor).
fn rle_floor(n: usize, average_run_length: f64, value_size: usize) -> f64 {
    if n == 0 || average_run_length <= 0.0 {
        return 0.0;
    }
    let runs = (n as f64 / average_run_length).max(1.0);
    (n * value_size) as f64 / (runs * (value_size as f64 + 4.0) + 32.0)
}

fn trivial_selection() -> Selection {
    Selection {
        code: SchemeCode::Uncompressed,
        estimates: vec![Estimate { code: SchemeCode::Uncompressed, ratio: 1.0 }],
    }
}

/// The one forced-scheme round-trip helper every in-crate scheme test goes
/// through: compress with a forced root scheme at cascade depth 3, decode
/// through the scratch-threaded path, compare bit-exactly.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    pub fn encode<V: Value>(code: SchemeCode, values: &[V], cfg: &Config) -> Vec<u8> {
        let mut out = Vec::new();
        compress_with_into(code, values, 3, cfg, &Scratch::new(), &mut out);
        out
    }

    pub fn decode<V: Value>(bytes: &[u8], cfg: &Config) -> Result<Vec<V>> {
        let mut out = Vec::new();
        decompress_into(&mut Reader::new(bytes), cfg, &Scratch::new(), &mut out)?;
        Ok(out)
    }

    pub fn encode_str(code: SchemeCode, arena: &StringArena, cfg: &Config) -> Vec<u8> {
        let mut out = Vec::new();
        compress_str_with_into(code, arena, 3, cfg, &Scratch::new(), &mut out);
        out
    }

    pub fn decode_str(bytes: &[u8], cfg: &Config) -> Result<StringViews> {
        let mut out = StringViews::default();
        decompress_str_into(&mut Reader::new(bytes), cfg, &Scratch::new(), &mut out)?;
        Ok(out)
    }

    /// Round-trips `values` through `code` under `cfg`, comparing
    /// [`Value::to_bits`] (NaN payloads, `-0.0`); returns the compressed size.
    pub fn roundtrip<V: Value>(code: SchemeCode, values: &[V], cfg: &Config) -> usize {
        let bytes = encode(code, values, cfg);
        let out = decode::<V>(&bytes, cfg).unwrap();
        assert_eq!(out.len(), values.len(), "{code:?}");
        for (i, (a, b)) in values.iter().zip(&out).enumerate() {
            assert!(a.to_bits() == b.to_bits(), "{code:?} index {i}: {a:?} vs {b:?}");
        }
        bytes.len()
    }

    /// Round-trips `strings` through `code`; returns the compressed size.
    pub fn roundtrip_str(code: SchemeCode, strings: &[&str]) -> usize {
        let cfg = Config::default();
        let bytes = encode_str(code, &StringArena::from_strs(strings), &cfg);
        let out = decode_str(&bytes, &cfg).unwrap();
        assert_eq!(out.len(), strings.len(), "{code:?}");
        for (i, s) in strings.iter().enumerate() {
            assert_eq!(out.get(i), s.as_bytes(), "{code:?} string {i}");
        }
        bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_codes_roundtrip() {
        for code in SchemeCode::full_pool() {
            assert_eq!(SchemeCode::from_u8(code as u8).unwrap(), code);
        }
        assert!(SchemeCode::from_u8(200).is_err());
    }

    #[test]
    fn applicable_sets_match_figure3() {
        assert!(SchemeCode::applicable(ColumnType::Integer).contains(&SchemeCode::FastPfor));
        assert!(!SchemeCode::applicable(ColumnType::Double).contains(&SchemeCode::FastPfor));
        assert!(SchemeCode::applicable(ColumnType::Double).contains(&SchemeCode::Pseudodecimal));
        assert!(SchemeCode::applicable(ColumnType::String).contains(&SchemeCode::DictFsst));
        assert!(!SchemeCode::applicable(ColumnType::String).contains(&SchemeCode::Frequency));
    }

    #[test]
    fn depth_zero_always_uncompressed() {
        let cfg = Config::default();
        assert_eq!(pick_int(&[1, 1, 1, 1], 0, &cfg).code, SchemeCode::Uncompressed);
        assert_eq!(pick_double(&[1.0; 4], 0, &cfg).code, SchemeCode::Uncompressed);
    }

    #[test]
    fn one_value_detected_without_sampling() {
        let cfg = Config::default();
        let sel = pick_int(&vec![42; 10_000], 3, &cfg);
        assert_eq!(sel.code, SchemeCode::OneValue);
    }
}
