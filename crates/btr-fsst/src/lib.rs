//! FSST — Fast Static Symbol Table string compression, from scratch.
//!
//! FSST (Boncz, Neumann, Leis: "FSST: Fast Random Access String Compression",
//! VLDB 2020) replaces frequently occurring substrings of up to 8 bytes with
//! 1-byte codes drawn from an immutable, per-block *symbol table* of at most
//! 255 symbols. Bytes that match no symbol are emitted as an escape code
//! followed by the literal byte. Decompression is a tight loop of table
//! lookups and short copies, which is what makes the scheme attractive for
//! data lakes: decoding speed is independent of how clever compression was.
//!
//! The symbol table is constructed with the iterative bottom-up algorithm of
//! the paper (simplified but faithful): starting from an empty table, each
//! generation compresses a sample with the current table, counts how often
//! each symbol and each *pair* of adjacent symbols occurs, and keeps the 255
//! candidates with the highest apparent gain (`count × length`), where pairs
//! are concatenated into longer symbols (capped at 8 bytes).
//!
//! Encoding is exact greedy longest-match, resolved per position by an
//! encoder index (a two-byte direct table plus a three-byte-prefix hash, see
//! `index.rs`) that training and [`SymbolTable::compress`] share. The index
//! belongs to the encode side only: a deserialized table holds its symbols
//! inline, allocates nothing, and builds the index only if asked to compress.
//!
//! This crate exposes:
//! * [`SymbolTable::train`] — build a table (and its encoder index) from
//!   sample byte-strings,
//! * [`SymbolTable::compress`] / [`SymbolTable::compressed_size`] /
//!   [`SymbolTable::decompress`] — one buffer,
//! * [`SymbolTable::serialize`] / [`SymbolTable::serialize_into`] /
//!   [`SymbolTable::serialized_size`] / [`SymbolTable::deserialize`],
//! * [`compress_strings`] — train on a block's strings and compress them
//!   back to back; the bulk path both BtrBlocks string schemes use,
//! * [`FxHasher`] — the multiply-rotate hasher training and btrblocks'
//!   statistics pass share.

mod fxhash;
mod index;
mod table;
mod train;

pub use fxhash::FxHasher;
pub use table::{SymbolTable, ESCAPE, MAX_SYMBOLS, MAX_SYMBOL_LEN};

/// Errors from FSST decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The compressed stream ended in the middle of an escape sequence.
    TruncatedEscape,
    /// A code referenced a symbol not present in the table.
    UnknownCode(u8),
    /// A serialized symbol table is malformed.
    CorruptTable(&'static str),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::TruncatedEscape => write!(f, "compressed stream ends inside an escape"),
            Error::UnknownCode(c) => write!(f, "unknown symbol code {c}"),
            Error::CorruptTable(m) => write!(f, "corrupt symbol table: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Trains a table on `strings` and appends every string's compressed form
/// to `out`, back to back, returning the table. FSST decoding is stateless,
/// so the concatenation decompresses with one call; callers that need the
/// boundaries keep the uncompressed lengths.
pub fn compress_strings<'a, I>(strings: I, out: &mut Vec<u8>) -> SymbolTable
where
    I: Iterator<Item = &'a [u8]> + Clone,
{
    let table = train::train(strings.clone());
    strings.for_each(|s| table.compress(s, out));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let corpus: Vec<&[u8]> = vec![
            b"http://www.example.com/page/1",
            b"http://www.example.com/page/2",
            b"http://www.example.com/index",
            b"http://www.example.org/about",
        ];
        let table = SymbolTable::train(&corpus);
        for s in &corpus {
            let mut comp = Vec::new();
            table.compress(s, &mut comp);
            let mut out = Vec::new();
            table.decompress(&comp, &mut out).unwrap();
            assert_eq!(&out, s);
            assert!(comp.len() < s.len(), "should compress repetitive URLs");
        }
    }

    #[test]
    fn roundtrip_empty_string() {
        let table = SymbolTable::train(&[b"abc".as_slice()]);
        let mut comp = Vec::new();
        table.compress(b"", &mut comp);
        assert!(comp.is_empty());
        let mut out = Vec::new();
        table.decompress(&comp, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn roundtrip_binary_data() {
        let data: Vec<u8> = (0..=255u8).cycle().take(2000).collect();
        let table = SymbolTable::train(&[&data]);
        let mut comp = Vec::new();
        table.compress(&data, &mut comp);
        let mut out = Vec::new();
        table.decompress(&comp, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn roundtrip_with_unseen_bytes() {
        // Train on ASCII, compress bytes never seen during training.
        let table = SymbolTable::train(&[b"aaaaabbbbb".as_slice()]);
        let input = [0u8, 255, 1, 254, b'a', b'a', b'a'];
        let mut comp = Vec::new();
        table.compress(&input, &mut comp);
        let mut out = Vec::new();
        table.decompress(&comp, &mut out).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn compress_strings_is_train_then_compress_each() {
        let corpus: Vec<&[u8]> = vec![b"hello world", b"", b"hello there", b"worldly"];
        let mut data = vec![0xAB]; // appends, never clears
        let table = compress_strings(corpus.iter().copied(), &mut data);
        assert_eq!(table.serialize(), SymbolTable::train(&corpus).serialize());
        let mut expected = vec![0xAB];
        corpus.iter().for_each(|s| table.compress(s, &mut expected));
        assert_eq!(data, expected);
        let mut out = Vec::new();
        table.decompress(&data[1..], &mut out).unwrap();
        assert_eq!(out, corpus.concat());
    }

    #[test]
    fn repetitive_text_compresses_well() {
        let line = b"2023-06-18 INFO request served status=200 path=/api/v1/users ".repeat(100);
        let table = SymbolTable::train(&[&line]);
        let mut comp = Vec::new();
        table.compress(&line, &mut comp);
        assert!(
            comp.len() * 2 < line.len(),
            "expected >2x on log text, got {} -> {}",
            line.len(),
            comp.len()
        );
        let mut out = Vec::new();
        table.decompress(&comp, &mut out).unwrap();
        assert_eq!(out, line);
    }

    #[test]
    fn table_serialization_roundtrip() {
        let corpus: Vec<&[u8]> = vec![b"SIGMOD 2023 Seattle", b"SIGMOD 2022 Philadelphia"];
        let table = SymbolTable::train(&corpus);
        let bytes = table.serialize();
        let back = SymbolTable::deserialize(&bytes).unwrap();
        let mut c1 = Vec::new();
        table.compress(corpus[0], &mut c1);
        let mut out = Vec::new();
        back.decompress(&c1, &mut out).unwrap();
        assert_eq!(&out, corpus[0]);
    }

    #[test]
    fn truncated_escape_is_error() {
        let table = SymbolTable::train(&[b"xyz".as_slice()]);
        let mut comp = Vec::new();
        table.compress(&[7u8], &mut comp); // unseen byte -> escape + literal
        comp.pop();
        let mut out = Vec::new();
        assert_eq!(table.decompress(&comp, &mut out), Err(Error::TruncatedEscape));
    }

    #[test]
    fn unicode_text_roundtrips() {
        let corpus = "Maceió Curitiba Münster Zürich 東京 Maceió Maceió".as_bytes();
        let table = SymbolTable::train(&[corpus]);
        let mut comp = Vec::new();
        table.compress(corpus, &mut comp);
        let mut out = Vec::new();
        table.decompress(&comp, &mut out).unwrap();
        assert_eq!(out, corpus);
    }
}
