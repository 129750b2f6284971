//! Predicate evaluation on compressed blocks.
//!
//! The paper's related-work discussion (§7) notes that while BtrBlocks
//! optimizes for raw decompression speed, it "can, in principle, also support
//! processing compressed data if the used schemes support it". This module
//! implements that extension.
//!
//! A predicate is a slice of *leaves*, `(CmpOp, Literal)` pairs on one
//! column, ANDed: a row matches when it passes every leaf. Every entry point
//! evaluates all the leaves in one pass over the block, packs the verdicts 64
//! rows to a `u64` word, and builds the answer with
//! [`RoaringBitmap::from_words`], so no kernel pushes matches one row at a
//! time. [`filter_compressed`] holds the kernels and is the one place their
//! set is declared; it answers, without materializing the block:
//!
//! * **OneValue** (every type) — decided once per block; a match is one range.
//! * **RLE** (numbers) — decided once per *run*; matching runs become ranges.
//! * **Dictionary** (numbers) — decided once per *distinct* value; the code
//!   sequence is decoded once and mapped through those verdict bits.
//! * **Frequency** (numbers) — decided once for the top value, then once per
//!   exception.
//!
//! Every other block, string Dict and Dict+FSST included, is `Ok(None)`: "no
//! kernel, decode". A string dictionary decodes to views over its small pool
//! without copying string bytes, so the decode is already the cheap path.
//! [`filter_block`] is total over all blocks: the kernel when there is one,
//! decompress-then-[`filter_decoded`] otherwise. The expression engine (crate
//! `btr-expr`) builds its leaf kernel on [`filter_compressed`], so a caller
//! that keeps decoded blocks decodes each block once. Kernels lease their
//! temporaries from the caller's [`Scratch`].

use crate::block::decompress_block_into;
use crate::config::Config;
use crate::scheme::fixed::{self, Value};
use crate::scheme::{self, SchemeCode};
use crate::scratch::Scratch;
use crate::types::{CmpOp, ColumnType, DecodedColumn, Literal};
use crate::writer::Reader;
use crate::{Error, Result};
use btr_roaring::RoaringBitmap;

/// Evaluates the AND of `leaves` over an already-decoded block (e.g. one
/// served from a decoded-block cache), returning matching block-relative
/// positions. The decoded-data counterpart of [`filter_compressed`].
pub fn filter_decoded(
    col: &DecodedColumn,
    leaves: &[(CmpOp, Literal)],
    scratch: &Scratch,
) -> Result<RoaringBitmap> {
    let mut words = scratch.lease::<Vec<u64>>(col.len().div_ceil(64));
    match col {
        DecodedColumn::Int(v) => pack(v, typed::<i32>(leaves)?, &mut words),
        DecodedColumn::Double(v) => pack(v, typed::<f64>(leaves)?, &mut words),
        DecodedColumn::Str(views) => pack_strs(views.iter(), typed::<&[u8]>(leaves)?, &mut words),
    }
    Ok(RoaringBitmap::from_words(&words))
}

/// Evaluates the AND of `leaves` over one compressed block in the compressed
/// domain, returning matching row positions (block-relative), or `Ok(None)`
/// when the block's scheme has no kernel: decode it and use
/// [`filter_decoded`].
///
/// A kernel validates the block exactly as [`decompress_block_into`] does
/// (frame cap, run totals, dictionary code range, trailing bytes): a block
/// the decoder rejects is rejected here with the same error, never answered.
pub fn filter_compressed(
    bytes: &[u8],
    ty: ColumnType,
    leaves: &[(CmpOp, Literal)],
    cfg: &Config,
    scratch: &Scratch,
) -> Result<Option<RoaringBitmap>> {
    let mut r = Reader::new(bytes);
    let (code, count) = scheme::read_frame_header(&mut r, cfg)?;
    let matches = match ty {
        ColumnType::Integer => {
            filter_fixed::<i32>(&mut r, code, count, typed(leaves)?, cfg, scratch)?
        }
        ColumnType::Double => {
            filter_fixed::<f64>(&mut r, code, count, typed(leaves)?, cfg, scratch)?
        }
        ColumnType::String => filter_str(&mut r, code, count, typed(leaves)?)?,
    };
    match matches {
        Some(_) if !r.rest().is_empty() => Err(Error::Corrupt("trailing bytes after block")),
        matches => Ok(matches),
    }
}

/// Evaluates the AND of `leaves` over one compressed block, returning
/// matching row positions (block-relative): [`filter_compressed`] when the
/// scheme has a kernel, decompress-then-[`filter_decoded`] otherwise. Total
/// over all blocks: a corrupt block fails with the decoder's error.
pub fn filter_block(
    bytes: &[u8],
    ty: ColumnType,
    leaves: &[(CmpOp, Literal)],
    cfg: &Config,
) -> Result<RoaringBitmap> {
    let mut scratch = Scratch::new();
    if let Some(matches) = filter_compressed(bytes, ty, leaves, cfg, &scratch)? {
        return Ok(matches);
    }
    let mut decoded = scratch.lease_decoded(ty);
    decompress_block_into(bytes, ty, cfg, &mut scratch, &mut decoded)?;
    filter_decoded(&decoded, leaves, &scratch)
}

/// A type a leaf's literal is read as.
trait Operand<'a>: Sized {
    fn of(literal: &'a Literal) -> Option<Self>;
}

impl Operand<'_> for i32 {
    fn of(literal: &Literal) -> Option<i32> {
        match literal {
            Literal::Int(v) => Some(*v),
            _ => None,
        }
    }
}

impl Operand<'_> for f64 {
    fn of(literal: &Literal) -> Option<f64> {
        match literal {
            Literal::Double(v) => Some(*v),
            _ => None,
        }
    }
}

impl<'a> Operand<'a> for &'a [u8] {
    fn of(literal: &'a Literal) -> Option<&'a [u8]> {
        match literal {
            Literal::Str(v) => Some(v),
            _ => None,
        }
    }
}

/// The leaves with their literals read as `T`, or the type-mismatch error
/// when any literal is not a `T`.
fn typed<'a, T: Operand<'a> + 'a>(
    leaves: &'a [(CmpOp, Literal)],
) -> Result<impl Iterator<Item = (CmpOp, T)> + Clone + 'a> {
    if leaves.iter().any(|(_, literal)| T::of(literal).is_none()) {
        return Err(Error::Corrupt("predicate literal type mismatch"));
    }
    Ok(leaves.iter().filter_map(|(op, literal)| Some((*op, T::of(literal)?))))
}

/// Bit `i` set when `chunk[i]` passes; `chunk` holds at most 64 values.
#[inline]
fn bits<T>(chunk: &[T], mut pass: impl FnMut(&T) -> bool) -> u64 {
    (chunk.iter().enumerate()).fold(0, |w, (i, x)| w | u64::from(pass(x)) << i)
}

/// The verdict word of 1 to 64 values: bit `i` set when `chunk[i]` passes
/// every leaf. The operator is matched once per leaf and word, not per row.
fn word<T: PartialOrd<L>, L>(chunk: &[T], leaves: impl Iterator<Item = (CmpOp, L)>) -> u64 {
    let mut w = u64::MAX >> (64 - chunk.len());
    for (op, lit) in leaves {
        if w == 0 {
            break;
        }
        w &= match op {
            CmpOp::Eq => bits(chunk, |x| x.eq(&lit)),
            CmpOp::Lt => bits(chunk, |x| x.lt(&lit)),
            CmpOp::Le => bits(chunk, |x| x.le(&lit)),
            CmpOp::Gt => bits(chunk, |x| x.gt(&lit)),
            CmpOp::Ge => bits(chunk, |x| x.ge(&lit)),
        };
    }
    w
}

/// Appends the verdict words of `values`, 64 values a word.
fn pack<T: PartialOrd<L>, L>(
    values: &[T],
    leaves: impl Iterator<Item = (CmpOp, L)> + Clone,
    words: &mut Vec<u64>,
) {
    words.extend(values.chunks(64).map(|chunk| word(chunk, leaves.clone())));
}

/// [`pack`] for strings read through an iterator (decoded views).
fn pack_strs<'s, L>(
    strs: impl Iterator<Item = &'s [u8]>,
    leaves: impl Iterator<Item = (CmpOp, L)> + Clone,
    words: &mut Vec<u64>,
) where
    &'s [u8]: PartialOrd<L>,
{
    let mut chunk: [&[u8]; 64] = [&[]; 64];
    let mut n = 0;
    for s in strs {
        if let Some(slot) = chunk.get_mut(n) {
            *slot = s;
        }
        n += 1;
        if n == chunk.len() {
            words.push(word(&chunk, leaves.clone()));
            n = 0;
        }
    }
    if let Some(rest) = chunk.get(..n).filter(|rest| !rest.is_empty()) {
        words.push(word(rest, leaves));
    }
}

/// The verdict bits of packed words, in row order (past the last row, the
/// zero padding).
fn verdicts(words: &[u64]) -> impl Iterator<Item = bool> + '_ {
    words.iter().flat_map(|&w| (0..64).map(move |i| w >> i & 1 != 0))
}

/// Every row of a `count`-row block as one range, or none.
fn all_or_none(count: usize, matched: bool) -> RoaringBitmap {
    if matched {
        // lint: allow(cast) count came off a u32 frame header and is capped by max_block_values
        RoaringBitmap::from_sorted_ranges(std::iter::once(0..count as u32))
    } else {
        RoaringBitmap::new()
    }
}

/// Expands per-run verdicts to per-row positions in O(runs): matching runs
/// become Roaring run-container ranges directly — the whole point of
/// evaluating on compressed data. `lengths` come validated from
/// `rle::read_runs_into` (they sum to the frame's u32 count).
fn expand_runs(verdicts: impl Iterator<Item = bool>, lengths: &[u32]) -> RoaringBitmap {
    let mut pos = 0u32;
    let mut ranges = Vec::new();
    for (v, &len) in verdicts.zip(lengths) {
        if v {
            ranges.push(pos..pos + len);
        }
        pos += len;
    }
    RoaringBitmap::from_sorted_ranges(ranges)
}

/// Maps a dictionary block's decoded code sequence through the
/// per-dictionary-entry verdict bits (`entries` of them); a short sequence or
/// a code outside the dictionary is the same corruption the decoder reports.
fn map_codes(
    codes: &[i32],
    count: usize,
    verdict: &[u64],
    entries: usize,
    words: &mut Vec<u64>,
) -> Result<()> {
    if codes.len() != count {
        return Err(Error::Corrupt("dict code count mismatch"));
    }
    let mut in_range = true;
    words.extend(codes.chunks(64).map(|chunk| {
        bits(chunk, |&c| {
            let entry = usize::try_from(c).ok().filter(|&c| c < entries);
            let bit = entry.and_then(|c| Some(verdict.get(c / 64)? >> (c % 64) & 1 != 0));
            in_range &= bit.is_some();
            bit.unwrap_or(false)
        })
    }));
    if in_range {
        Ok(())
    } else {
        Err(Error::Corrupt("dict code out of range"))
    }
}

/// Fills `words` with `count` rows that all match the top value's verdict,
/// then sets each exception row to its own verdict. Mirrors the decoder's
/// checks: one exception per bitmap position, every position inside the
/// block.
fn patch_exceptions(
    count: usize,
    top_matches: bool,
    bitmap: &RoaringBitmap,
    exceptions: usize,
    exception_verdicts: &[u64],
    words: &mut Vec<u64>,
) -> Result<()> {
    if bitmap.cardinality() != exceptions as u64 {
        return Err(Error::Corrupt("frequency exception count mismatch"));
    }
    let fill = if top_matches { u64::MAX } else { 0 };
    words.resize(count / 64, fill);
    if !count.is_multiple_of(64) {
        words.push(fill >> (64 - count % 64));
    }
    for (pos, matches) in bitmap.iter().zip(verdicts(exception_verdicts)) {
        let pos = pos as usize;
        let word = words.get_mut(pos / 64).filter(|_| pos < count);
        let word = word.ok_or(Error::Corrupt("frequency exception position out of range"))?;
        let bit = 1u64 << (pos % 64);
        *word = if matches { *word | bit } else { *word & !bit };
    }
    Ok(())
}

/// The integer and double compressed-domain kernels; `None` = this scheme
/// has none.
fn filter_fixed<V: Value>(
    r: &mut Reader<'_>,
    code: SchemeCode,
    count: usize,
    leaves: impl Iterator<Item = (CmpOp, V)> + Clone,
    cfg: &Config,
    scratch: &Scratch,
) -> Result<Option<RoaringBitmap>> {
    Ok(Some(match code {
        SchemeCode::OneValue => all_or_none(count, word(&[r.value::<V>()?], leaves) != 0),
        SchemeCode::Rle => {
            let mut values = scratch.lease::<Vec<V>>(0);
            let mut lengths = scratch.lease::<Vec<u32>>(0);
            fixed::rle::read_runs_into(r, count, cfg, scratch, &mut values, &mut lengths)?;
            let mut verdict = scratch.lease::<Vec<u64>>(values.len().div_ceil(64));
            pack(&values, leaves, &mut verdict);
            expand_runs(verdicts(&verdict), &lengths)
        }
        SchemeCode::Dict => {
            let dict_len = r.u32()? as usize;
            let mut dict = scratch.lease::<Vec<V>>(dict_len.min(count));
            r.vec_into(dict_len, &mut dict)?;
            let mut verdict = scratch.lease::<Vec<u64>>(dict.len().div_ceil(64));
            pack(&dict, leaves, &mut verdict);
            let mut codes = scratch.lease::<Vec<i32>>(count);
            scheme::decompress_into(r, cfg, scratch, &mut codes)?;
            let mut words = scratch.lease::<Vec<u64>>(count.div_ceil(64));
            map_codes(&codes, count, &verdict, dict.len(), &mut words)?;
            RoaringBitmap::from_words(&words)
        }
        SchemeCode::Frequency => {
            let top: V = r.value()?;
            let bitmap_len = r.u32()? as usize;
            let bitmap = RoaringBitmap::deserialize(r.take(bitmap_len)?)?;
            let mut exceptions = scratch.lease::<Vec<V>>(0);
            scheme::decompress_into(r, cfg, scratch, &mut exceptions)?;
            let mut verdict = scratch.lease::<Vec<u64>>(exceptions.len().div_ceil(64));
            pack(&exceptions, leaves.clone(), &mut verdict);
            let top_matches = word(&[top], leaves) != 0;
            let mut words = scratch.lease::<Vec<u64>>(count.div_ceil(64));
            patch_exceptions(count, top_matches, &bitmap, exceptions.len(), &verdict, &mut words)?;
            RoaringBitmap::from_words(&words)
        }
        _ => return Ok(None),
    }))
}

/// The string compressed-domain kernel: OneValue decides once per block;
/// every other string scheme is `None` (see the module docs).
fn filter_str<'a>(
    r: &mut Reader<'_>,
    code: SchemeCode,
    count: usize,
    leaves: impl Iterator<Item = (CmpOp, &'a [u8])>,
) -> Result<Option<RoaringBitmap>> {
    if code != SchemeCode::OneValue {
        return Ok(None);
    }
    let len = r.u32()? as usize;
    let value = r.take(len)?;
    Ok(Some(all_or_none(count, word(&[value], leaves) != 0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{compress_block_with, decompress_block, BlockRef};
    use crate::types::StringArena;

    fn one(op: CmpOp, literal: Literal) -> [(CmpOp, Literal); 1] {
        [(op, literal)]
    }

    #[test]
    fn type_mismatch_is_error() {
        // Checked before any kernel or decode runs, for every leaf.
        let cfg = Config::default();
        let scratch = Scratch::new();
        let mismatch = Error::Corrupt("predicate literal type mismatch");
        let ints = [1, 2];
        let bytes = compress_block_with(SchemeCode::Uncompressed, BlockRef::Int(&ints), &cfg);
        let double = one(CmpOp::Eq, Literal::Double(1.0));
        assert_eq!(filter_block(&bytes, ColumnType::Integer, &double, &cfg), Err(mismatch.clone()));
        let mixed = [(CmpOp::Ge, Literal::Int(1)), (CmpOp::Lt, Literal::Str(b"2".to_vec()))];
        assert_eq!(filter_block(&bytes, ColumnType::Integer, &mixed, &cfg), Err(mismatch.clone()));
        let decoded = decompress_block(&bytes, ColumnType::Integer, &cfg).unwrap();
        assert_eq!(filter_decoded(&decoded, &double, &scratch), Err(mismatch.clone()));
        let strs = StringArena::from_strs(&["a"; 3]);
        let bytes = compress_block_with(SchemeCode::OneValue, BlockRef::Str(&strs), &cfg);
        let got = filter_compressed(&bytes, ColumnType::String, &double, &cfg, &scratch);
        assert_eq!(got, Err(mismatch));
    }

    #[test]
    fn three_level_cascade_matches_filter_decoded() {
        // RLE root -> Dictionary run values -> bit-packed code sequence: the
        // caller's scratch is leased from at every level of the cascade.
        let cfg = Config::default();
        let palette: Vec<i32> = (0..16).map(|i| 1_000_003 * (i * i - 40)).collect();
        let mut rng = 0x9E37_79B9u32;
        let mut values = Vec::new();
        while values.len() < 60_000 {
            rng ^= rng << 13;
            rng ^= rng >> 17;
            rng ^= rng << 5;
            let run = 2 + (rng >> 8) as usize % 9;
            values.extend(std::iter::repeat_n(palette[rng as usize % 16], run));
        }
        let bytes = compress_block_with(SchemeCode::Rle, BlockRef::Int(&values), &cfg);
        // Frame header (5) + run count (4), then the run-values child frame;
        // its payload is dict_len + 16 entries, then the code-sequence frame.
        assert_eq!(bytes[0], SchemeCode::Rle.as_u8());
        assert_eq!(bytes[9], SchemeCode::Dict.as_u8());
        let codes_frame = bytes[9 + 5 + 4 + 16 * 4];
        assert!(
            codes_frame == SchemeCode::FastBp128.as_u8() || codes_frame == SchemeCode::FastPfor.as_u8(),
            "code sequence should bit-pack, got scheme {codes_frame}"
        );
        let decoded = decompress_block(&bytes, ColumnType::Integer, &cfg).unwrap();
        let scratch = Scratch::new();
        for (op, lit) in [(CmpOp::Eq, palette[3]), (CmpOp::Lt, 0), (CmpOp::Ge, palette[9])] {
            let leaves = one(op, Literal::Int(lit));
            let fast = filter_compressed(&bytes, ColumnType::Integer, &leaves, &cfg, &scratch);
            let fast = fast.unwrap().expect("RLE has a kernel");
            let slow = filter_decoded(&decoded, &leaves, &scratch).unwrap();
            assert!(fast.iter().eq(slow.iter()), "{op:?}");
            assert!(!fast.is_empty() && (fast.cardinality() as usize) < values.len());
        }
    }

    /// A value type of the kernel differential.
    trait Probe: PartialOrd + Clone + std::fmt::Debug {
        fn literal(&self) -> Literal;
        fn compress(code: SchemeCode, values: &[Self], cfg: &Config) -> Vec<u8>;
    }

    impl Probe for i32 {
        fn literal(&self) -> Literal {
            Literal::Int(*self)
        }
        fn compress(code: SchemeCode, values: &[i32], cfg: &Config) -> Vec<u8> {
            compress_block_with(code, BlockRef::Int(values), cfg)
        }
    }

    impl Probe for f64 {
        fn literal(&self) -> Literal {
            Literal::Double(*self)
        }
        fn compress(code: SchemeCode, values: &[f64], cfg: &Config) -> Vec<u8> {
            compress_block_with(code, BlockRef::Double(values), cfg)
        }
    }

    impl Probe for Vec<u8> {
        fn literal(&self) -> Literal {
            Literal::Str(self.clone())
        }
        fn compress(code: SchemeCode, values: &[Vec<u8>], cfg: &Config) -> Vec<u8> {
            compress_block_with(code, BlockRef::Str(&StringArena::from_strs(values)), cfg)
        }
    }

    /// The containers a scheme's answer must be built from: `Exact` is what
    /// `from_sorted_iter` builds over the naive loop's positions, `Runs` the
    /// maximal ranges of those positions as run containers (a kernel that
    /// answers a run or a block at a time).
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Form {
        Exact,
        Runs,
    }

    const ALL_OPS: [CmpOp; 5] = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

    fn assert_form(got: &RoaringBitmap, positions: &[u32], form: Form, what: &str) {
        let want = match form {
            Form::Exact => RoaringBitmap::from_sorted_iter(positions.iter().copied()),
            Form::Runs => {
                let mut ranges: Vec<std::ops::Range<u32>> = Vec::new();
                for &p in positions {
                    match ranges.last_mut() {
                        Some(r) if r.end == p => r.end += 1,
                        _ => ranges.push(p..p + 1),
                    }
                }
                RoaringBitmap::from_sorted_ranges(ranges)
            }
        };
        assert_eq!(got, &want, "{what}");
    }

    /// `(leaves, the naive row loop's matching positions)`.
    type Cases = Vec<(Vec<(CmpOp, Literal)>, Vec<u32>)>;

    /// Every operator against every literal as one leaf, then the
    /// multi-leaf sets on one column: range pairs around `lo < hi`, a
    /// contradictory pair, a duplicated leaf, and a pair with each of
    /// `extra` (NaN among them).
    fn naive_cases<T: Probe>(values: &[T], lo: &T, hi: &T, extra: &[T]) -> Cases {
        let mut sets: Vec<Vec<(CmpOp, &T)>> = Vec::new();
        for op in ALL_OPS {
            for lit in [lo, hi].into_iter().chain(extra) {
                sets.push(vec![(op, lit)]);
            }
        }
        sets.push(vec![(CmpOp::Ge, lo), (CmpOp::Lt, hi)]);
        sets.push(vec![(CmpOp::Gt, lo), (CmpOp::Le, hi)]);
        sets.push(vec![(CmpOp::Le, hi), (CmpOp::Ge, lo), (CmpOp::Eq, lo)]);
        sets.push(vec![(CmpOp::Gt, hi), (CmpOp::Lt, lo)]);
        sets.push(vec![(CmpOp::Le, hi), (CmpOp::Le, hi)]);
        for lit in extra {
            sets.push(vec![(CmpOp::Ge, lo), (CmpOp::Le, lit)]);
        }
        let case = |set: Vec<(CmpOp, &T)>| {
            let positions = (0u32..)
                .zip(values)
                .filter_map(|(i, v)| set.iter().all(|(op, lit)| op.matches(v, lit)).then_some(i))
                .collect();
            (set.into_iter().map(|(op, lit)| (op, lit.literal())).collect(), positions)
        };
        sets.into_iter().map(case).collect()
    }

    /// One forced block against the naive cases, through one scratch: a
    /// kernel scheme must answer in the compressed domain, a decoded-path
    /// scheme must not, `filter_block` must agree with both, and a
    /// multi-leaf answer must equal the intersection of its leaves' answers.
    fn probe_block<T: Probe>(
        ty: ColumnType,
        code: SchemeCode,
        form: Option<Form>,
        values: &[T],
        cases: &Cases,
    ) {
        let cfg = Config::default();
        let scratch = Scratch::new();
        let bytes = T::compress(code, values, &cfg);
        assert_eq!(bytes[0], code.as_u8(), "{ty:?} {code:?} was not forced");
        let decoded = form.is_none().then(|| decompress_block(&bytes, ty, &cfg).unwrap());
        let filter = |leaves: &[(CmpOp, Literal)]| {
            let kernel = filter_compressed(&bytes, ty, leaves, &cfg, &scratch).unwrap();
            assert_eq!(kernel.is_some(), form.is_some(), "{ty:?} {code:?}: kernel or not");
            match (kernel, &decoded) {
                (Some(got), _) => got,
                (None, Some(decoded)) => filter_decoded(decoded, leaves, &scratch).unwrap(),
                (None, None) => unreachable!("a kernel scheme answered above"),
            }
        };
        for (i, (leaves, positions)) in cases.iter().enumerate() {
            let what = format!("{ty:?} {code:?} len {} {leaves:?}", values.len());
            let got = filter(leaves);
            assert_form(&got, positions, form.unwrap_or(Form::Exact), &what);
            if i == 0 {
                let total = filter_block(&bytes, ty, leaves, &cfg).unwrap();
                assert_eq!(total, got, "{what}: filter_block");
            }
            if let [first, rest @ ..] = &leaves[..] {
                if rest.is_empty() {
                    continue;
                }
                let each = rest.iter().map(|leaf| filter(std::slice::from_ref(leaf)));
                let and = each.fold(filter(std::slice::from_ref(first)), |a, b| a.intersection(&b));
                assert!(got.iter().eq(and.iter()), "{what}: intersection of its leaves");
            }
        }
    }

    /// The kernel differential for one value type. `sorted` ascends; a
    /// block marks `k` rows with its lowest (or highest) value and gives the
    /// others the remaining values and `unmarked_only` in runs of three, so
    /// `Eq`, `Le` and `Lt` against the neighbour (or `Ge`, and `Gt` against
    /// the neighbour) match exactly the `k` marked rows.
    fn differential<T: Probe>(
        ty: ColumnType,
        sorted: &[T],
        unmarked_only: &[T],
        extra_literals: &[T],
        kernels: &[(SchemeCode, Form)],
        decoded: &[SchemeCode],
    ) {
        for len in [1usize, 63, 64, 65, 4_097, 64_000] {
            let mut counts = vec![0, 1, 4_096, 4_097, len - 1, len];
            counts.retain(|&k| k <= len);
            counts.sort_unstable();
            counts.dedup();
            for k in counts {
                for high in [false, true] {
                    let last = sorted.len() - 1;
                    let (mark, neighbour) = if high { (last, last - 1) } else { (0, 1) };
                    let others: Vec<T> = (sorted.iter().enumerate())
                        .filter(|&(i, _)| i != mark)
                        .map(|(_, v)| v.clone())
                        .chain(unmarked_only.iter().cloned())
                        .collect();
                    // Low marks scatter (hash order); high marks cluster in
                    // one range mid-block.
                    let mut marked = vec![false; len];
                    if high {
                        let start = (len - k) / 2;
                        marked[start..start + k].iter_mut().for_each(|m| *m = true);
                    } else {
                        let mut order: Vec<usize> = (0..len).collect();
                        order.sort_by_key(|&r| (r as u32).wrapping_mul(0x9E37_79B9).rotate_left(13));
                        order[..k].iter().for_each(|&r| marked[r] = true);
                    }
                    let values: Vec<T> = (0..len)
                        .map(|i| match marked[i] {
                            true => sorted[mark].clone(),
                            false => others[(i / 3) % others.len()].clone(),
                        })
                        .collect();
                    let (lo, hi) = (&sorted[mark.min(neighbour)], &sorted[mark.max(neighbour)]);
                    let cases = naive_cases(&values, lo, hi, extra_literals);
                    for &(code, form) in kernels {
                        probe_block(ty, code, Some(form), &values, &cases);
                    }
                    for &code in decoded {
                        probe_block(ty, code, None, &values, &cases);
                    }
                }
            }
            // OneValue needs a constant block.
            for v in sorted.iter().chain(unmarked_only).take(2).chain(unmarked_only) {
                let values = vec![v.clone(); len];
                let cases = naive_cases(&values, &sorted[0], &sorted[1], extra_literals);
                probe_block(ty, SchemeCode::OneValue, Some(Form::Runs), &values, &cases);
            }
        }
    }

    const KERNELS: [(SchemeCode, Form); 3] = [
        (SchemeCode::Rle, Form::Runs),
        (SchemeCode::Dict, Form::Exact),
        (SchemeCode::Frequency, Form::Exact),
    ];

    #[test]
    fn int_kernels_match_a_naive_row_loop() {
        use SchemeCode::*;
        differential(
            ColumnType::Integer,
            &[-1_000_000, -5, 0, 7, 1 << 30],
            &[],
            &[],
            &KERNELS,
            &[Uncompressed, FastBp128, FastPfor],
        );
    }

    #[test]
    fn double_kernels_match_a_naive_row_loop() {
        use SchemeCode::*;
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        differential(
            ColumnType::Double,
            &[-inf, -2.5, -0.0, 0.0, 2.5, inf],
            &[nan],
            &[nan, 0.0],
            &KERNELS,
            &[Uncompressed, Pseudodecimal],
        );
    }

    #[test]
    fn string_kernels_match_a_naive_row_loop() {
        use SchemeCode::*;
        let strs: [&[u8]; 5] = [b"", b"\0", b"\0\0x", b"abc", b"abcdefghijkl"];
        differential(
            ColumnType::String,
            &strs.map(<[u8]>::to_vec),
            &[],
            &[b"\0\0".to_vec()],
            &[],
            &[Uncompressed, Dict, DictFsst, Fsst],
        );
    }

    #[test]
    fn cmp_op_flip_is_involutive_and_correct() {
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(op.flip().flip(), op);
            for (a, b) in [(1, 2), (2, 1), (3, 3)] {
                assert_eq!(op.matches(&a, &b), op.flip().matches(&b, &a));
            }
        }
    }
}
