//! The encoder index: exact greedy longest-match in O(1) table probes.
//!
//! A position is resolved from one 8-byte little-endian load `word`:
//! symbols of length 3–8 live in a small hash keyed by their first three
//! bytes (chains contiguous, longest first, every entry compared exactly as
//! `word & mask == bytes`), symbols of length 1–2 in a direct table keyed by
//! the next two bytes. A long symbol always beats a short one, so the chain
//! is probed first. Unlike the FSST paper's lossy perfect hash — where a
//! colliding symbol is simply dropped from the table — no symbol is ever
//! shadowed: the match is the longest symbol that is a prefix of the input,
//! ties going to the lowest code.

use crate::table::{Symbol, ESCAPE};

const HASH_BITS: u32 = 11;
const HASH_SLOTS: usize = 1 << HASH_BITS;

/// Short-table entry `code | len << 8` for "no symbol starts here": the
/// escape code, advancing one byte.
// lint: allow(cast) widening u8 -> u16 in a const, where `From` is unavailable
const NO_SYMBOL: u16 = ESCAPE as u16 | 1 << 8;

/// Mask selecting the low `len` bytes (1..=8) of a little-endian word.
#[inline(always)]
pub(crate) fn low_mask(len: usize) -> u64 {
    debug_assert!((1..=8).contains(&len));
    // lint: allow(cast) len is 1..=8, so the shift is 0..=56
    u64::MAX >> (64 - 8 * len as u32)
}

#[inline(always)]
fn hash3(word: u64) -> usize {
    // lint: allow(cast) deliberately keeps the low three bytes only
    let prefix = word as u32 & 0x00FF_FFFF;
    (prefix.wrapping_mul(2_971_215_073) >> (32 - HASH_BITS)) as usize
}

/// A symbol of length 3–8 in a hash chain.
#[derive(Debug, Clone, Copy)]
struct LongEntry {
    bytes: u64,
    mask: u64,
    code: u8,
    len: u8,
}

/// Lookup structures for one symbol table; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct Index {
    /// `b0 | b1 << 8` → `code | len << 8` of the longest symbol of length
    /// ≤ 2 that is a prefix of `[b0, b1]`, else [`NO_SYMBOL`].
    short: Box<[u16; 1 << 16]>,
    /// The same for a last lone byte `b0`, where a 2-byte symbol cannot match.
    lone: [u16; 256],
    /// Hash slot → `start | count << 8` of its chain in `long`.
    slots: [u16; HASH_SLOTS],
    /// Chains, contiguous per slot, sorted by length descending then code.
    long: Vec<LongEntry>,
}

impl Index {
    /// The index of the empty table: every byte escapes.
    pub(crate) fn new() -> Self {
        let short: Box<[u16]> = vec![NO_SYMBOL; 1 << 16].into_boxed_slice();
        Index {
            short: short.try_into().expect("allocated with 1 << 16 entries"),
            lone: [NO_SYMBOL; 256],
            slots: [0; HASH_SLOTS],
            long: Vec::new(),
        }
    }

    /// Rebuilds the index in place for `symbols` (indexed by code).
    pub(crate) fn build(&mut self, symbols: &[Symbol]) {
        debug_assert!(symbols.len() <= usize::from(ESCAPE));
        self.short.fill(NO_SYMBOL);
        self.lone.fill(NO_SYMBOL);
        self.slots.fill(0);
        self.long.clear();
        // Codes descend so that, of duplicate symbols, the lowest code is
        // written last and wins; length 2 is written after (over) length 1.
        for short_len in [1u8, 2] {
            let of_len = symbols
                .iter()
                .enumerate()
                .rev()
                .filter(|(_, s)| s.len == short_len);
            for (code, sym) in of_len {
                // lint: allow(cast) code < symbols.len() <= 255
                let entry = code as u16 | u16::from(sym.len) << 8;
                // lint: allow(cast) deliberately keeps the symbol's (at most two) bytes
                let key = sym.bytes as u16;
                if short_len == 1 {
                    // lint: allow(indexing) key < 256 for a 1-byte symbol
                    self.lone[usize::from(key)] = entry;
                    for next in 0..=255u16 {
                        // lint: allow(indexing) a u16 indexes a 65 536-entry table
                        self.short[usize::from(key | next << 8)] = entry;
                    }
                } else {
                    // lint: allow(indexing) a u16 indexes a 65 536-entry table
                    self.short[usize::from(key)] = entry;
                }
            }
        }
        for (code, sym) in symbols.iter().enumerate().filter(|(_, s)| s.len >= 3) {
            self.long.push(LongEntry {
                bytes: sym.bytes,
                mask: low_mask(usize::from(sym.len)),
                // lint: allow(cast) code < symbols.len() <= 255
                code: code as u8,
                len: sym.len,
            });
        }
        self.long
            .sort_unstable_by_key(|e| (hash3(e.bytes), std::cmp::Reverse(e.len), e.code));
        for (i, e) in self.long.iter().enumerate() {
            // lint: allow(indexing) hash3 yields HASH_BITS bits
            let slot = &mut self.slots[hash3(e.bytes)];
            if *slot == 0 {
                // lint: allow(cast) i < long.len() <= 255
                *slot = i as u16;
            }
            // Chain length in the high byte; at most 255 entries exist.
            *slot += 1 << 8;
        }
    }

    /// The longest symbol that is a prefix of the `avail` (≥ 1) input bytes
    /// at the bottom of `word`, as `(code, len)`; `(ESCAPE, 1)` if none.
    /// With `TAIL` unset the caller vouches for `avail >= 8` and the length
    /// checks compile away; with it set, `word` is zero-padded above
    /// `avail` bytes and no symbol longer than `avail` may match — which is
    /// also what keeps a symbol containing `0x00` from matching the padding.
    #[inline(always)]
    fn find<const TAIL: bool>(&self, word: u64, avail: usize) -> (u8, usize) {
        // lint: allow(indexing) hash3 yields HASH_BITS bits
        let slot = self.slots[hash3(word)];
        if slot != 0 {
            let start = usize::from(slot & 0xFF);
            let chain = self.long.get(start..start + usize::from(slot >> 8));
            for e in chain.unwrap_or_default() {
                if word & e.mask == e.bytes && (!TAIL || usize::from(e.len) <= avail) {
                    return (e.code, usize::from(e.len));
                }
            }
        }
        let entry = if TAIL && avail == 1 {
            // lint: allow(indexing) a u8 indexes a 256-entry table
            // lint: allow(cast) deliberately keeps the low byte only
            self.lone[usize::from(word as u8)]
        } else {
            // lint: allow(indexing) a u16 indexes a 65 536-entry table
            // lint: allow(cast) deliberately keeps the low two bytes only
            self.short[usize::from(word as u16)]
        };
        // lint: allow(cast) the low byte of an entry is its code
        (entry as u8, usize::from(entry >> 8))
    }

    /// Greedy longest-match parse of `input`: calls `emit(code, word, len)`
    /// once per step, left to right, where `word` holds the input from the
    /// step's position on (its low `len` bytes are the bytes consumed) and
    /// `code` is [`ESCAPE`] with `len == 1` when no symbol matches. This is
    /// the one matcher: the encoder, the size estimate and training all
    /// drive it.
    #[inline(always)]
    pub(crate) fn scan(&self, input: &[u8], mut emit: impl FnMut(u8, u64, usize)) {
        let mut pos = 0usize;
        while let Some(chunk) = input.get(pos..).and_then(|rest| rest.first_chunk::<8>()) {
            let word = u64::from_le_bytes(*chunk);
            let (code, len) = self.find::<false>(word, 8);
            emit(code, word, len);
            pos += len;
        }
        // Fewer than 8 bytes are left: they fit one zero-padded word, which
        // is shifted down as they are consumed, so nothing is read past the
        // string. `find::<true>` never returns more than `avail`.
        let rest = input.get(pos..).unwrap_or_default();
        let mut tail = [0u8; 8];
        if let Some(dst) = tail.get_mut(..rest.len()) {
            dst.copy_from_slice(rest);
        }
        let (mut word, mut avail) = (u64::from_le_bytes(tail), rest.len());
        while avail > 0 {
            let (code, len) = self.find::<true>(word, avail);
            emit(code, word, len);
            word >>= 8 * len;
            avail -= len;
        }
    }
}

/// Test-only reference implementations the encoder index and the trainer
/// are diffed against: a per-first-byte bucket walk that tries each
/// candidate symbol in turn, and the training loop over it with the standard
/// library's default map and a full sort. Slow and obviously greedy
/// longest-match (ties to the lowest code); the bytes they produce define
/// what the fast paths must produce.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::table::{Symbol, ESCAPE, MAX_SYMBOLS, MAX_SYMBOL_LEN};
    use std::collections::HashMap;

    pub(crate) fn sym(s: &[u8]) -> Symbol {
        let mut buf = [0u8; 8];
        buf[..s.len()].copy_from_slice(s);
        Symbol {
            bytes: u64::from_le_bytes(buf),
            len: s.len() as u8,
        }
    }

    /// Whether `input` starts with `sym`.
    fn matches(sym: &Symbol, input: &[u8]) -> bool {
        let len = sym.len as usize;
        if input.len() < len {
            return false;
        }
        let mut buf = [0u8; 8];
        let take = input.len().min(8);
        buf[..take].copy_from_slice(&input[..take]);
        let word = u64::from_le_bytes(buf);
        let mask = if len == 8 {
            u64::MAX
        } else {
            (1u64 << (len * 8)) - 1
        };
        (word & mask) == sym.bytes
    }

    pub(crate) struct BucketWalk {
        symbols: Vec<Symbol>,
        /// Per-first-byte candidate codes, longest symbol first (stable, so
        /// equal lengths keep code order).
        buckets: Vec<Vec<u8>>,
    }

    impl BucketWalk {
        pub(crate) fn new(symbols: &[Symbol]) -> Self {
            let mut buckets: Vec<Vec<u8>> = vec![Vec::new(); 256];
            for (code, sym) in symbols.iter().enumerate() {
                buckets[(sym.bytes & 0xFF) as usize].push(code as u8);
            }
            for bucket in &mut buckets {
                bucket.sort_by_key(|&c| std::cmp::Reverse(symbols[usize::from(c)].len));
            }
            BucketWalk {
                symbols: symbols.to_vec(),
                buckets,
            }
        }

        /// The symbol code matching at the start of `rest` (non-empty), if any.
        fn find(&self, rest: &[u8]) -> Option<u8> {
            self.buckets[usize::from(rest[0])]
                .iter()
                .copied()
                .find(|&code| matches(&self.symbols[usize::from(code)], rest))
        }

        pub(crate) fn compress(&self, input: &[u8], out: &mut Vec<u8>) {
            let mut pos = 0usize;
            while pos < input.len() {
                match self.find(&input[pos..]) {
                    Some(code) => {
                        out.push(code);
                        pos += self.symbols[usize::from(code)].len as usize;
                    }
                    None => {
                        out.extend([ESCAPE, input[pos]]);
                        pos += 1;
                    }
                }
            }
        }

        /// Greedy parse into `(bytes, len)` keys; unmatched bytes come out as
        /// single-byte pseudo-symbols.
        fn parse(&self, text: &[u8]) -> Vec<(u64, u8)> {
            let mut keys = Vec::new();
            let mut pos = 0usize;
            while pos < text.len() {
                let key = match self.find(&text[pos..]) {
                    Some(code) => {
                        let sym = self.symbols[usize::from(code)];
                        (sym.bytes, sym.len)
                    }
                    None => (u64::from(text[pos]), 1),
                };
                pos += usize::from(key.1);
                keys.push(key);
            }
            keys
        }
    }

    /// The reference trainer; returns the final generation's symbols.
    pub(crate) fn train(sample: &[&[u8]]) -> Vec<Symbol> {
        let mut budget = 16 * 1024;
        let mut texts: Vec<&[u8]> = Vec::new();
        for s in sample {
            if budget == 0 {
                break;
            }
            let take = s.len().min(budget.max(64)).min(budget);
            if take == 0 {
                continue;
            }
            texts.push(&s[..take]);
            budget -= take;
        }
        let mut symbols: Vec<Symbol> = Vec::new();
        if texts.is_empty() {
            return symbols;
        }
        for _gen in 0..5 {
            let walk = BucketWalk::new(&symbols);
            let mut gains: HashMap<(u64, u8), u64> = HashMap::new();
            for text in &texts {
                let mut prev: Option<(u64, u8)> = None;
                for key in walk.parse(text) {
                    *gains.entry(key).or_insert(0) += u64::from(key.1);
                    if let Some(p) = prev {
                        if usize::from(p.1 + key.1) <= MAX_SYMBOL_LEN {
                            let pair = (p.0 | (key.0 << (8 * u32::from(p.1))), p.1 + key.1);
                            *gains.entry(pair).or_insert(0) += u64::from(pair.1);
                        }
                    }
                    prev = Some(key);
                }
            }
            let mut cands: Vec<((u64, u8), u64)> = gains
                .into_iter()
                .filter(|&((_, len), gain)| gain > u64::from(len))
                .collect();
            cands.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            cands.truncate(MAX_SYMBOLS);
            symbols = cands
                .into_iter()
                .map(|((bytes, len), _)| Symbol { bytes, len })
                .collect();
        }
        symbols
    }

    /// Whether two long symbols with different 3-byte prefixes share a hash
    /// slot (the case a chain entry's exact compare exists for).
    pub(crate) fn slot_shared_by_distinct_prefixes(symbols: &[Symbol]) -> bool {
        let long: Vec<u64> = symbols
            .iter()
            .filter(|s| s.len >= 3)
            .map(|s| s.bytes)
            .collect();
        long.iter().any(|&a| {
            long.iter()
                .any(|&b| super::hash3(a) == super::hash3(b) && a & 0xFF_FFFF != b & 0xFF_FFFF)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_mask_selects_whole_bytes() {
        assert_eq!(low_mask(1), 0xFF);
        assert_eq!(low_mask(3), 0xFF_FFFF);
        assert_eq!(low_mask(8), u64::MAX);
    }
}
