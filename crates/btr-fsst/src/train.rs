//! Iterative bottom-up symbol table construction.
//!
//! Follows the FSST paper's training loop: several generations of
//! (1) greedily parsing a sample with the current table, (2) counting how
//! often each symbol and each adjacent symbol *pair* occurs, (3) rebuilding
//! the table from the 255 candidates with the highest gain (`count × length`),
//! where pairs become longer concatenated symbols. Literal bytes that the
//! current table cannot match are treated as single-byte pseudo-symbols so
//! they can earn a code in the next generation.
//!
//! The parse is [`Index::scan`], the encoder's own matcher, so training
//! optimizes exactly the behaviour compression will exhibit.

use crate::fxhash::FxHasher;
use crate::index::{low_mask, Index};
use crate::table::{Symbol, SymbolTable, MAX_SYMBOLS, MAX_SYMBOL_LEN};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Training generations; the paper uses 5.
const GENERATIONS: usize = 5;

/// Cap on the total number of sample bytes consumed (the paper uses ~16 KiB).
const SAMPLE_BYTES: usize = 16 * 1024;

/// Key for candidate symbols during counting: packed bytes + length.
type CandKey = (u64, u8);

#[inline]
fn concat(a: CandKey, b: CandKey) -> Option<CandKey> {
    let total = a.1 + b.1;
    if usize::from(total) > MAX_SYMBOL_LEN {
        return None;
    }
    Some((a.0 | (b.0 << (8 * u32::from(a.1))), total))
}

/// Trains a symbol table on the given sample strings.
pub(crate) fn train<'a>(sample: impl Iterator<Item = &'a [u8]>) -> SymbolTable {
    // Gather up to SAMPLE_BYTES of text, spreading across the strings so a
    // single huge string does not dominate.
    let mut budget = SAMPLE_BYTES;
    let mut texts: Vec<&[u8]> = Vec::new();
    for s in sample {
        if budget == 0 {
            break;
        }
        let take = s.len().min(budget.max(64)).min(budget);
        if take == 0 {
            continue;
        }
        // lint: allow(indexing) take <= s.len() by the min above
        texts.push(&s[..take]);
        budget = budget.saturating_sub(take);
    }
    if texts.is_empty() {
        return SymbolTable::from_symbols(&[], None);
    }

    // One index and one gain map, rebuilt in place every generation. The
    // map's keys come from the data being compressed, but it holds at most
    // `2 × SAMPLE_BYTES` of them and dies with the call, so a sample crafted
    // to collide costs a bounded slowdown of one block's training. Its
    // iteration order never reaches the output: candidates are fully
    // ordered by `(gain, key)` before selection.
    let mut index = Box::new(Index::new());
    let mut symbols: Vec<Symbol> = Vec::with_capacity(MAX_SYMBOLS);
    let mut gains: HashMap<CandKey, u64, BuildHasherDefault<FxHasher>> = HashMap::default();
    let mut cands: Vec<(CandKey, u64)> = Vec::new();
    for _gen in 0..GENERATIONS {
        gains.clear();
        for text in &texts {
            let mut prev: Option<CandKey> = None;
            index.scan(text, |_, word, len| {
                // A matched symbol's bytes, or the unmatched literal byte as
                // a 1-byte pseudo-symbol: either way the bytes consumed.
                // lint: allow(cast) len is a symbol length, 1..=8
                let key = (word & low_mask(len), len as u8);
                *gains.entry(key).or_insert(0) += u64::from(key.1);
                if let Some(pair) = prev.and_then(|p| concat(p, key)) {
                    *gains.entry(pair).or_insert(0) += u64::from(pair.1);
                }
                prev = Some(key);
            });
        }
        // Keep the MAX_SYMBOLS candidates with the highest gain. Gains below
        // the cost of an escape (single-byte symbols seen once) are dropped.
        // Keys are unique, so `(gain desc, key)` is a total order and the
        // selection is independent of the map's iteration order.
        cands.clear();
        cands.extend(
            gains
                .iter()
                .map(|(&key, &gain)| (key, gain))
                .filter(|&((_, len), gain)| gain > u64::from(len)),
        );
        cands.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        cands.truncate(MAX_SYMBOLS);
        symbols.clear();
        symbols.extend(cands.iter().map(|&((bytes, len), _)| Symbol { bytes, len }));
        index.build(&symbols);
    }
    SymbolTable::from_symbols(&symbols, Some(index))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_caps_at_eight() {
        let a = (0x1234, 7u8);
        let b = (0x56, 1u8);
        assert!(concat(a, b).is_some());
        let c = (0x5678, 2u8);
        assert!(concat(a, c).is_none());
    }

    #[test]
    fn concat_orders_bytes() {
        let a = (u64::from_le_bytes(*b"ab\0\0\0\0\0\0"), 2u8);
        let b = (u64::from_le_bytes(*b"cd\0\0\0\0\0\0"), 2u8);
        let (bytes, len) = concat(a, b).unwrap();
        assert_eq!(len, 4);
        assert_eq!(&bytes.to_le_bytes()[..4], b"abcd");
    }

    #[test]
    fn training_learns_long_symbols() {
        let text = b"common_prefix/common_prefix/common_prefix/".repeat(50);
        let table = train([text.as_slice()].into_iter());
        assert!(!table.is_empty());
        // The learned table must cut the text at least in half.
        assert!(table.compressed_size(&text) * 2 < text.len());
    }

    #[test]
    fn training_on_empty_sample() {
        let table = train(std::iter::empty());
        assert!(table.is_empty());
        let table = train([b"".as_slice()].into_iter());
        assert!(table.is_empty());
    }

    #[test]
    fn training_is_deterministic() {
        let text = b"deterministic output matters for tests".repeat(20);
        let t1 = train([text.as_slice()].into_iter()).serialize();
        let t2 = train([text.as_slice()].into_iter()).serialize();
        assert_eq!(t1, t2);
    }

    /// The trained table is byte for byte the reference trainer's.
    #[test]
    fn trains_the_same_table_as_the_reference() {
        use btr_corrupt::rng::Xorshift;
        let mut rng = Xorshift::new(0x17);
        let urls: Vec<Vec<u8>> = (0..600)
            .map(|i| {
                let id = rng.gen_range(0..100_000u32);
                format!(
                    "https://www.example.com/shop/category-{}/item-{id}?ref=home",
                    i % 9
                )
                .into()
            })
            .collect();
        let names: Vec<Vec<u8>> = (0..3_000)
            .map(|_| {
                let len = rng.gen_range(0..=9usize);
                (0..len)
                    .map(|_| b"aeinorst"[rng.gen_range(0..8usize)])
                    .collect()
            })
            .collect();
        let words = [
            "furiously",
            "quick",
            "deposits",
            "sleep",
            "above",
            "the",
            "pending",
            "ideas",
        ];
        let text: Vec<Vec<u8>> = (0..40)
            .map(|_| {
                let n = rng.gen_range(20..200usize);
                let line: Vec<&str> = (0..n)
                    .map(|_| words[rng.gen_range(0..words.len())])
                    .collect();
                line.join(" ").into()
            })
            .collect();
        let mut binary = vec![0u8; 20_000];
        rng.fill_bytes(&mut binary);
        for corpus in [urls, names, text, vec![binary]] {
            let refs: Vec<&[u8]> = corpus.iter().map(|s| s.as_slice()).collect();
            let want = SymbolTable::from_symbols(&crate::index::oracle::train(&refs), None);
            assert!(!want.is_empty());
            assert_eq!(train(refs.iter().copied()).serialize(), want.serialize());
        }
    }
}
