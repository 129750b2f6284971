//! Randomized round-trip tests: FSST must round-trip arbitrary binary
//! strings, regardless of what the table was trained on. Deterministic
//! (seeded xorshift) so runs are reproducible offline.

use btr_corrupt::rng::Xorshift;
use btr_fsst::SymbolTable;

fn bytes(rng: &mut Xorshift, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..=max_len);
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}

#[test]
fn roundtrip_arbitrary_input() {
    let mut rng = Xorshift::new(0x21);
    for _ in 0..150 {
        let train = bytes(&mut rng, 2000);
        let input = bytes(&mut rng, 2000);
        let table = SymbolTable::train(&[&train]);
        let mut comp = Vec::new();
        table.compress(&input, &mut comp);
        let mut out = Vec::new();
        table.decompress(&comp, &mut out).unwrap();
        assert_eq!(out, input);
    }
}

#[test]
fn roundtrip_on_training_data() {
    let mut rng = Xorshift::new(0x22);
    for _ in 0..150 {
        let input = bytes(&mut rng, 3000);
        let table = SymbolTable::train(&[&input]);
        let mut comp = Vec::new();
        table.compress(&input, &mut comp);
        assert_eq!(comp.len(), table.compressed_size(&input));
        let mut out = Vec::new();
        table.decompress(&comp, &mut out).unwrap();
        assert_eq!(out, input);
    }
}

#[test]
fn roundtrip_many_strings() {
    let mut rng = Xorshift::new(0x23);
    for _ in 0..100 {
        let count = rng.gen_range(0..50usize);
        let strings: Vec<Vec<u8>> = (0..count).map(|_| bytes(&mut rng, 100)).collect();
        let refs: Vec<&[u8]> = strings.iter().map(|s| s.as_slice()).collect();
        let mut data = Vec::new();
        let table = btr_fsst::compress_strings(refs.iter().copied(), &mut data);
        // Stateless decoding: one call over the concatenation gives back the
        // concatenated input.
        let mut out = Vec::new();
        table.decompress(&data, &mut out).unwrap();
        assert_eq!(out, strings.concat());
    }
}

#[test]
fn table_serialization_roundtrips() {
    let mut rng = Xorshift::new(0x24);
    for _ in 0..150 {
        let train = bytes(&mut rng, 2000);
        let table = SymbolTable::train(&[&train]);
        let bytes = table.serialize();
        assert_eq!(bytes.len(), table.serialized_size());
        let back = SymbolTable::deserialize(&bytes).unwrap();
        assert_eq!(back.serialize(), bytes);
    }
}

#[test]
fn ascii_text_roundtrip_and_no_expansion_blowup() {
    let mut rng = Xorshift::new(0x25);
    for _ in 0..150 {
        let words = rng.gen_range(1..100usize);
        let mut text = Vec::new();
        for w in 0..words {
            if w > 0 {
                text.push(b' ');
            }
            let len = rng.gen_range(1..=12usize);
            for _ in 0..len {
                text.push(b'a' + rng.gen_range(0u8..26));
            }
        }
        let table = SymbolTable::train(&[&text]);
        let mut comp = Vec::new();
        table.compress(&text, &mut comp);
        // Worst case is escape-everything: 2 bytes per input byte.
        assert!(comp.len() <= 2 * text.len());
        let mut out = Vec::new();
        table.decompress(&comp, &mut out).unwrap();
        assert_eq!(out, text);
    }
}
