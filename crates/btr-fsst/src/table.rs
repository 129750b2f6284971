//! The immutable symbol table: encoding, decoding, serialization.

use crate::index::Index;
use crate::{Error, Result};
use std::sync::OnceLock;

/// Maximum number of real symbols; code 255 is reserved as the escape marker.
pub const MAX_SYMBOLS: usize = 255;

/// Maximum symbol length in bytes.
pub const MAX_SYMBOL_LEN: usize = 8;

/// The escape code: the following stream byte is a literal.
pub const ESCAPE: u8 = 255;

/// A symbol: up to 8 bytes stored little-endian in a `u64`, zero above `len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Symbol {
    pub bytes: u64,
    pub len: u8,
}

impl Symbol {
    #[inline]
    pub fn as_slice(&self) -> [u8; 8] {
        self.bytes.to_le_bytes()
    }
}

/// An immutable FSST symbol table.
///
/// The symbols live inline, so a deserialized table — all that decoding
/// needs — owns no heap memory. The encoder index is attached by
/// training, or built on the first `compress` of a deserialized table.
#[derive(Clone)]
pub struct SymbolTable {
    /// Symbols indexed by code; entries at `n` and above are unused.
    symbols: [Symbol; 256],
    n: u8,
    index: OnceLock<Box<Index>>,
}

impl std::fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymbolTable")
            .field("symbols", &self.symbols())
            .finish_non_exhaustive()
    }
}

impl SymbolTable {
    /// A table of `symbols` (code = position), with `index` if already built.
    pub(crate) fn from_symbols(symbols: &[Symbol], index: Option<Box<Index>>) -> Self {
        assert!(symbols.len() <= MAX_SYMBOLS, "at most 255 symbols");
        debug_assert!(symbols
            .iter()
            .all(|s| (1..=MAX_SYMBOL_LEN).contains(&usize::from(s.len))));
        let mut table = SymbolTable {
            symbols: [Symbol::default(); 256],
            // lint: allow(cast) symbols.len() <= MAX_SYMBOLS = 255 was asserted above
            n: symbols.len() as u8,
            index: index.map(OnceLock::from).unwrap_or_default(),
        };
        // lint: allow(indexing) symbols.len() <= 255 < 256 was asserted above
        table.symbols[..symbols.len()].copy_from_slice(symbols);
        table
    }

    /// Builds a symbol table from sample byte-strings; see the crate docs.
    pub fn train(sample: &[&[u8]]) -> Self {
        crate::train::train(sample.iter().copied())
    }

    /// Number of symbols in the table.
    pub fn len(&self) -> usize {
        usize::from(self.n)
    }

    /// Whether the table has no symbols (everything will be escaped).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The symbols, indexed by code.
    pub(crate) fn symbols(&self) -> &[Symbol] {
        // lint: allow(indexing) n is a u8 and the array has 256 entries
        &self.symbols[..usize::from(self.n)]
    }

    fn index(&self) -> &Index {
        self.index.get_or_init(|| {
            let mut index = Box::new(Index::new());
            index.build(self.symbols());
            index
        })
    }

    /// Compresses `input`, appending codes to `out`.
    ///
    /// Greedy longest-match: at each position the longest matching symbol is
    /// emitted; if none matches, an escape plus the literal byte is emitted.
    pub fn compress(&self, input: &[u8], out: &mut Vec<u8>) {
        // Worst case is all escapes. Reserved once, so the loop below writes
        // through the spare capacity without growing the vector per byte.
        out.reserve(2 * input.len());
        let spare = out.spare_capacity_mut();
        let mut written = 0usize;
        self.index().scan(input, |code, word, _| {
            // Code and would-be literal are both stored; only an escape
            // keeps the literal. `written + 1 < 2 * input.len()` because at
            // most two bytes were written per input byte already consumed.
            // lint: allow(indexing) spare.len() >= 2 * input.len() > written + 1, see above
            spare[written].write(code);
            // lint: allow(indexing) as above
            // lint: allow(cast) deliberately keeps the low byte: the input byte at this position
            spare[written + 1].write(word as u8);
            written += 1 + usize::from(code == ESCAPE);
        });
        let len = out.len() + written;
        // SAFETY: `written <= 2 * input.len() <= spare.len()`, so `len` is
        // within capacity, and every byte below `written` was initialized by
        // the stores above (each step writes `spare[written]`, and
        // `spare[written + 1]` whenever it advances by two).
        unsafe { out.set_len(len) };
    }

    /// Size `compress` would produce, without materializing the output.
    pub fn compressed_size(&self, input: &[u8]) -> usize {
        let mut size = 0usize;
        self.index()
            .scan(input, |code, _, _| size += 1 + usize::from(code == ESCAPE));
        size
    }

    /// Decompresses `input`, appending to `out`.
    ///
    /// The hot loop writes each symbol as one unconditional 8-byte store and
    /// then advances by the true length — the "write behind the output end"
    /// trick from the paper — so there is no per-byte copy loop. `out` is
    /// over-reserved by 8 bytes to make the trailing store safe.
    pub fn decompress(&self, input: &[u8], out: &mut Vec<u8>) -> Result<()> {
        out.reserve(input.len() * MAX_SYMBOL_LEN + 8);
        let n_symbols = self.n;
        let mut i = 0usize;
        while i < input.len() {
            // lint: allow(indexing) i < input.len() by the loop condition
            let code = input[i];
            if code == ESCAPE {
                if i + 1 >= input.len() {
                    return Err(Error::TruncatedEscape);
                }
                // lint: allow(indexing) i + 1 < input.len() was checked above
                out.push(input[i + 1]);
                i += 2;
            } else {
                if code >= n_symbols {
                    return Err(Error::UnknownCode(code));
                }
                // lint: allow(indexing) code < n_symbols was checked above
                let sym = self.symbols[usize::from(code)];
                let old_len = out.len();
                // SAFETY: `reserve` above guarantees at least 8 spare bytes
                // beyond any point we write within this loop iteration, and
                // we immediately fix up the length to the true symbol length.
                unsafe {
                    if out.capacity() < old_len + 8 {
                        out.reserve(8 + (input.len() - i) * MAX_SYMBOL_LEN);
                    }
                    let dst = out.as_mut_ptr().add(old_len);
                    std::ptr::copy_nonoverlapping(sym.as_slice().as_ptr(), dst, 8);
                    out.set_len(old_len + sym.len as usize);
                }
                i += 1;
            }
        }
        Ok(())
    }

    /// Serializes the table: `[n][len_0..len_n-1][bytes...]`.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_size());
        self.serialize_into(&mut out);
        out
    }

    /// Appends [`SymbolTable::serialize`]'s bytes to `out`.
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        out.push(self.n);
        out.extend(self.symbols().iter().map(|s| s.len));
        for s in self.symbols() {
            // lint: allow(indexing) s.len <= MAX_SYMBOL_LEN = 8 over an 8-byte array
            out.extend_from_slice(&s.as_slice()[..usize::from(s.len)]);
        }
    }

    /// Size of [`SymbolTable::serialize`]'s output.
    pub fn serialized_size(&self) -> usize {
        1 + self
            .symbols()
            .iter()
            .map(|s| 1 + usize::from(s.len))
            .sum::<usize>()
    }

    /// Deserializes a table produced by [`SymbolTable::serialize`]. Builds
    /// no encoder state and allocates nothing.
    pub fn deserialize(bytes: &[u8]) -> Result<Self> {
        let (&n, rest) = bytes.split_first().ok_or(Error::CorruptTable("empty buffer"))?;
        if usize::from(n) > MAX_SYMBOLS {
            return Err(Error::CorruptTable("too many symbols"));
        }
        if rest.len() < usize::from(n) {
            return Err(Error::CorruptTable("missing length array"));
        }
        let (lens, mut data) = rest.split_at(usize::from(n));
        let mut table = SymbolTable {
            symbols: [Symbol::default(); 256],
            n,
            index: OnceLock::new(),
        };
        for (slot, &len) in table.symbols.iter_mut().zip(lens) {
            let len_us = usize::from(len);
            if len_us == 0 || len_us > MAX_SYMBOL_LEN {
                return Err(Error::CorruptTable("symbol length out of range"));
            }
            if data.len() < len_us {
                return Err(Error::CorruptTable("missing symbol bytes"));
            }
            let mut buf = [0u8; 8];
            // lint: allow(indexing) len_us <= 8 and data.len() >= len_us were checked above
            buf[..len_us].copy_from_slice(&data[..len_us]);
            // lint: allow(indexing) data.len() >= len_us was checked above
            data = &data[len_us..];
            *slot = Symbol {
                bytes: u64::from_le_bytes(buf),
                len,
            };
        }
        Ok(table)
    }

    /// Number of bytes [`SymbolTable::deserialize`] consumes for this buffer
    /// without fully parsing symbol contents.
    pub fn deserialized_len(bytes: &[u8]) -> Result<usize> {
        let (&n, rest) = bytes.split_first().ok_or(Error::CorruptTable("empty buffer"))?;
        let n = usize::from(n);
        if rest.len() < n {
            return Err(Error::CorruptTable("missing length array"));
        }
        // lint: allow(indexing) rest.len() >= n was checked above
        let body: usize = rest[..n].iter().map(|&l| usize::from(l)).sum();
        Ok(1 + n + body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::oracle::{sym, BucketWalk};
    use btr_corrupt::rng::Xorshift;

    fn table(symbols: &[Symbol]) -> SymbolTable {
        SymbolTable::from_symbols(symbols, None)
    }

    /// `compress` and `compressed_size` against the bucket-walk reference.
    fn assert_matches_oracle(table: &SymbolTable, oracle: &BucketWalk, input: &[u8]) {
        let (mut got, mut want) = (vec![0x5A], vec![0x5A]);
        table.compress(input, &mut got);
        oracle.compress(input, &mut want);
        assert_eq!(got, want, "input {input:?} with {:?}", table.symbols());
        assert_eq!(table.compressed_size(input), got.len() - 1);
        let mut back = Vec::new();
        table.decompress(&got[1..], &mut back).unwrap();
        assert_eq!(back, input);
    }

    /// Random symbols over a tiny alphabet (so matches, shared prefixes and
    /// duplicates are the norm), including `0x00` and `0xFF`, plus every
    /// prefix 1..=8 of a few seeds.
    fn random_symbols(rng: &mut Xorshift, n: usize) -> Vec<Symbol> {
        const ALPHABET: [u8; 5] = [0x00, 0xFF, b'a', b'b', b'c'];
        let word = |rng: &mut Xorshift, len: usize| -> Vec<u8> {
            (0..len)
                .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
                .collect()
        };
        let mut symbols = Vec::new();
        while symbols.len() < n {
            if rng.gen_range(0..4usize) == 0 {
                let seed = word(rng, 8);
                symbols.extend((1..=8).map(|len| sym(&seed[..len])));
            } else {
                let len = rng.gen_range(1..=8usize);
                symbols.push(sym(&word(rng, len)));
            }
        }
        symbols.truncate(n);
        symbols
    }

    #[test]
    fn index_agrees_with_bucket_walk_on_random_tables() {
        let mut rng = Xorshift::new(0x15);
        let mut shared_slot = false;
        for n in [0usize, 1, 2, 7, 40, 120, 255, 255, 255] {
            let symbols = random_symbols(&mut rng, n);
            shared_slot |= crate::index::oracle::slot_shared_by_distinct_prefixes(&symbols);
            let table = table(&symbols);
            let oracle = BucketWalk::new(&symbols);
            for round in 0..40 {
                // Mostly whole symbols back to back, so long matches occur
                // and every truncation below ends inside a would-be match.
                let mut input = Vec::new();
                while input.len() < 24 {
                    match symbols.len() {
                        0 => input.push(b'a'),
                        len if round % 4 != 3 => {
                            let s = symbols[rng.gen_range(0..len)];
                            input.extend_from_slice(&s.as_slice()[..usize::from(s.len)]);
                        }
                        _ => input.push([0x00, 0xFF, b'a', b'z'][rng.gen_range(0..4usize)]),
                    }
                }
                for len in 0..=24 {
                    assert_matches_oracle(&table, &oracle, &input[..len]);
                }
            }
            let mut long = vec![0u8; 5_000];
            rng.fill_bytes(&mut long);
            for b in long.iter_mut().step_by(3) {
                *b = [0x00, 0xFF, b'a', b'b', b'c'][usize::from(*b) % 5];
            }
            assert_matches_oracle(&table, &oracle, &long);
        }
        assert!(
            shared_slot,
            "no generated table put two prefixes in one hash slot"
        );
    }

    #[test]
    fn zero_bytes_in_symbols_never_match_padding() {
        let symbols = [
            sym(b"a\0"),
            sym(b"ab\0\0"),
            sym(b"\0\0\0"),
            sym(b"abc\0\0\0\0\0"),
        ];
        let table = table(&symbols);
        let oracle = BucketWalk::new(&symbols);
        for input in [
            b"a".as_slice(),
            b"ab",
            b"ab\0",
            b"abc",
            b"abc\0\0\0\0",
            b"\0",
            b"\0\0",
            b"xxxxxxxxa",
        ] {
            assert_matches_oracle(&table, &oracle, input);
        }
        let mut out = Vec::new();
        table.compress(b"a", &mut out);
        assert_eq!(out, [ESCAPE, b'a']);
    }

    #[test]
    fn duplicate_symbols_resolve_to_the_lowest_code() {
        for text in [b"a".as_slice(), b"ab", b"abcd"] {
            let symbols = [sym(b"zz"), sym(text), sym(text)];
            let mut out = Vec::new();
            table(&symbols).compress(text, &mut out);
            assert_eq!(out, [1]);
            assert_matches_oracle(&table(&symbols), &BucketWalk::new(&symbols), text);
        }
    }

    #[test]
    fn all_escape_input_fills_exactly_the_reserve() {
        let mut input = vec![0u8; 1_000];
        Xorshift::new(0x16).fill_bytes(&mut input);
        let mut out = Vec::with_capacity(2 * input.len());
        let (ptr, cap) = (out.as_ptr(), out.capacity());
        table(&[]).compress(&input, &mut out);
        assert_eq!(out.len(), 2 * input.len());
        assert_eq!(
            (out.as_ptr(), out.capacity()),
            (ptr, cap),
            "reallocated after the reserve"
        );
        assert!(out
            .chunks(2)
            .zip(&input)
            .all(|(pair, &b)| pair == [ESCAPE, b]));
    }

    #[test]
    fn deserialized_table_builds_its_index_on_first_compress() {
        let trained = SymbolTable::train(&[b"index on demand, index on demand".as_slice()]);
        assert!(trained.index.get().is_some());
        let back = SymbolTable::deserialize(&trained.serialize()).unwrap();
        assert!(back.index.get().is_none());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        trained.compress(b"index on demand", &mut a);
        back.compress(b"index on demand", &mut b);
        assert_eq!(a, b);
        assert!(back.index.get().is_some());
    }

    #[test]
    fn longest_match_wins() {
        let table = table(&[sym(b"ab"), sym(b"abcd"), sym(b"a")]);
        let mut out = Vec::new();
        table.compress(b"abcdab", &mut out);
        assert_eq!(out, vec![1, 0]); // "abcd" then "ab"
    }

    #[test]
    fn escape_for_unmatched() {
        let table = table(&[sym(b"x")]);
        let mut out = Vec::new();
        table.compress(b"xyx", &mut out);
        assert_eq!(out, vec![0, ESCAPE, b'y', 0]);
    }

    #[test]
    fn compressed_size_matches_compress() {
        let table = table(&[sym(b"ab"), sym(b"a")]);
        for input in [b"abababa".as_slice(), b"zzz", b"", b"aabbab"] {
            let mut out = Vec::new();
            table.compress(input, &mut out);
            assert_eq!(out.len(), table.compressed_size(input));
        }
    }

    #[test]
    fn decompress_rejects_unknown_code() {
        let table = table(&[sym(b"a")]);
        let mut out = Vec::new();
        assert_eq!(table.decompress(&[7], &mut out), Err(Error::UnknownCode(7)));
    }

    #[test]
    fn symbol_match_at_input_end() {
        // A 4-byte symbol must not match when only 3 bytes remain.
        let table = table(&[sym(b"abcd"), sym(b"a")]);
        let mut out = Vec::new();
        table.compress(b"abc", &mut out);
        assert_eq!(out, vec![1, ESCAPE, b'b', ESCAPE, b'c']);
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(SymbolTable::deserialize(&[]).is_err());
        assert!(SymbolTable::deserialize(&[1]).is_err()); // promises 1 symbol, no lens
        assert!(SymbolTable::deserialize(&[1, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0]).is_err()); // len 9
        assert!(SymbolTable::deserialize(&[1, 4, 1, 2]).is_err()); // missing bytes
    }

    #[test]
    fn eight_byte_symbols() {
        let table = table(&[sym(b"12345678")]);
        let mut comp = Vec::new();
        table.compress(b"1234567812345678", &mut comp);
        assert_eq!(comp, vec![0, 0]);
        let mut out = Vec::new();
        table.decompress(&comp, &mut out).unwrap();
        assert_eq!(out, b"1234567812345678");
    }
}
