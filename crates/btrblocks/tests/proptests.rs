//! Randomized round-trip tests: the whole cascading compressor must
//! round-trip arbitrary columns bitwise, under every scheme and both SIMD
//! modes. Deterministic (seeded xorshift) so runs are reproducible offline.

use btr_corrupt::rng::Xorshift;
use btrblocks::block::{compress_block, compress_block_with, decompress_block, BlockRef};
use btrblocks::{
    decompress_block_into, Column, ColumnData, ColumnType, Config, DecodedColumn, Relation,
    SchemeCode, Scratch, SimdMode, StringArena, StringViews,
};

const CASES: usize = 64;

fn small_cfg(simd: SimdMode) -> Config {
    Config {
        block_size: 256, // force multi-block relations even for small inputs
        simd,
        ..Config::default()
    }
}

fn simd_mode(case: usize) -> SimdMode {
    if case.is_multiple_of(2) {
        SimdMode::Auto
    } else {
        SimdMode::ForceScalar
    }
}

/// Four integer shapes: arbitrary, tiny-range, run-heavy, dominant-with-
/// exceptions — the distributions the int schemes are specialized for.
fn arb_ints(rng: &mut Xorshift) -> Vec<i32> {
    match rng.gen_range(0..4u32) {
        0 => {
            let len = rng.gen_range(0..1500usize);
            (0..len).map(|_| rng.next_u32() as i32).collect()
        }
        1 => {
            let len = rng.gen_range(0..1500usize);
            (0..len).map(|_| rng.gen_range(-5i32..5)).collect()
        }
        2 => {
            let runs = rng.gen_range(0..60usize);
            let mut out = Vec::new();
            for _ in 0..runs {
                let v = rng.next_u32() as i32;
                let n = rng.gen_range(1..40usize);
                out.extend(std::iter::repeat_n(v, n));
            }
            out
        }
        _ => {
            let len = rng.gen_range(0..1500usize);
            (0..len)
                .map(|_| if rng.gen_bool(0.9) { 0 } else { rng.next_u32() as i32 })
                .collect()
        }
    }
}

/// Three double shapes: raw bit patterns (incl. NaN payloads), price-like
/// (PDE-friendly), low-cardinality.
fn arb_doubles(rng: &mut Xorshift) -> Vec<f64> {
    match rng.gen_range(0..3u32) {
        0 => {
            let len = rng.gen_range(0..1000usize);
            (0..len).map(|_| f64::from_bits(rng.next_u64())).collect()
        }
        1 => {
            let len = rng.gen_range(0..1000usize);
            (0..len)
                .map(|_| rng.gen_range(0i32..100_000) as f64 / 100.0)
                .collect()
        }
        _ => {
            const CHOICES: [f64; 5] = [0.0, 83.2833, 3.05, f64::NAN, -0.0];
            let len = rng.gen_range(0..1000usize);
            (0..len).map(|_| CHOICES[rng.gen_range(0usize..5)]).collect()
        }
    }
}

/// Three string shapes: arbitrary bytes, low-cardinality words, and
/// prefix-sharing URLs.
fn arb_strings(rng: &mut Xorshift) -> Vec<Vec<u8>> {
    match rng.gen_range(0..3u32) {
        0 => {
            let count = rng.gen_range(0..400usize);
            (0..count)
                .map(|_| {
                    let len = rng.gen_range(0..30usize);
                    let mut s = vec![0u8; len];
                    rng.fill_bytes(&mut s);
                    s
                })
                .collect()
        }
        1 => {
            const WORDS: [&[u8]; 4] = [b"BRONX", b"QUEENS", b"", "Maceió".as_bytes()];
            let count = rng.gen_range(0..600usize);
            (0..count).map(|_| WORDS[rng.gen_range(0usize..4)].to_vec()).collect()
        }
        _ => {
            let count = rng.gen_range(0..400usize);
            (0..count)
                .map(|_| {
                    format!("https://example.com/page/{}", rng.gen_range(0u32..50)).into_bytes()
                })
                .collect()
        }
    }
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn int_blocks_roundtrip() {
    let mut rng = Xorshift::new(0x51);
    for case in 0..CASES {
        let values = arb_ints(&mut rng);
        let cfg = small_cfg(simd_mode(case));
        let (bytes, _) = compress_block(BlockRef::Int(&values), &cfg);
        match decompress_block(&bytes, ColumnType::Integer, &cfg).unwrap() {
            DecodedColumn::Int(out) => assert_eq!(out, values),
            _ => panic!("wrong decoded type"),
        }
    }
}

#[test]
fn double_blocks_roundtrip() {
    let mut rng = Xorshift::new(0x52);
    for case in 0..CASES {
        let values = arb_doubles(&mut rng);
        let cfg = small_cfg(simd_mode(case));
        let (bytes, _) = compress_block(BlockRef::Double(&values), &cfg);
        match decompress_block(&bytes, ColumnType::Double, &cfg).unwrap() {
            DecodedColumn::Double(out) => assert!(bits_eq(&values, &out)),
            _ => panic!("wrong decoded type"),
        }
    }
}

#[test]
fn string_blocks_roundtrip() {
    let mut rng = Xorshift::new(0x53);
    for case in 0..CASES {
        let strings = arb_strings(&mut rng);
        let cfg = small_cfg(simd_mode(case));
        let arena = StringArena::from_strs(&strings);
        let (bytes, _) = compress_block(BlockRef::Str(&arena), &cfg);
        match decompress_block(&bytes, ColumnType::String, &cfg).unwrap() {
            DecodedColumn::Str(views) => {
                assert_eq!(views.len(), strings.len());
                for (i, s) in strings.iter().enumerate() {
                    assert_eq!(views.get(i), s.as_slice());
                }
            }
            _ => panic!("wrong decoded type"),
        }
    }
}

#[test]
fn every_int_scheme_roundtrips_when_forced() {
    let mut rng = Xorshift::new(0x54);
    for _ in 0..CASES {
        let values = arb_ints(&mut rng);
        let cfg = Config::default();
        for code in [
            SchemeCode::Uncompressed,
            SchemeCode::Rle,
            SchemeCode::Dict,
            SchemeCode::Frequency,
            SchemeCode::FastPfor,
            SchemeCode::FastBp128,
        ] {
            let bytes = compress_block_with(code, BlockRef::Int(&values), &cfg);
            match decompress_block(&bytes, ColumnType::Integer, &cfg).unwrap() {
                DecodedColumn::Int(out) => assert_eq!(&out, &values, "scheme {code:?}"),
                _ => panic!("wrong decoded type for {code:?}"),
            }
        }
    }
}

#[test]
fn every_double_scheme_roundtrips_when_forced() {
    let mut rng = Xorshift::new(0x55);
    for _ in 0..CASES {
        let values = arb_doubles(&mut rng);
        let cfg = Config::default();
        for code in [
            SchemeCode::Uncompressed,
            SchemeCode::Rle,
            SchemeCode::Dict,
            SchemeCode::Frequency,
            SchemeCode::Pseudodecimal,
        ] {
            let bytes = compress_block_with(code, BlockRef::Double(&values), &cfg);
            match decompress_block(&bytes, ColumnType::Double, &cfg).unwrap() {
                DecodedColumn::Double(out) => {
                    assert!(bits_eq(&values, &out), "scheme {code:?}")
                }
                _ => panic!("wrong decoded type for {code:?}"),
            }
        }
    }
}

#[test]
fn every_string_scheme_roundtrips_when_forced() {
    let mut rng = Xorshift::new(0x56);
    for _ in 0..CASES {
        let strings = arb_strings(&mut rng);
        let cfg = Config::default();
        let arena = StringArena::from_strs(&strings);
        for code in [
            SchemeCode::Uncompressed,
            SchemeCode::Dict,
            SchemeCode::DictFsst,
            SchemeCode::Fsst,
        ] {
            let bytes = compress_block_with(code, BlockRef::Str(&arena), &cfg);
            match decompress_block(&bytes, ColumnType::String, &cfg).unwrap() {
                DecodedColumn::Str(views) => {
                    for (i, s) in strings.iter().enumerate() {
                        assert_eq!(views.get(i), s.as_slice(), "scheme {code:?}");
                    }
                }
                _ => panic!("wrong decoded type for {code:?}"),
            }
        }
    }
}

#[test]
fn relations_roundtrip_via_file_bytes() {
    let mut rng = Xorshift::new(0x57);
    for case in 0..CASES {
        let ints = arb_ints(&mut rng);
        let cfg = small_cfg(simd_mode(case));
        let n = ints.len();
        let doubles: Vec<f64> = ints.iter().map(|&i| f64::from(i) * 0.5).collect();
        let strings: Vec<String> = ints.iter().map(|&i| format!("s{}", i % 17)).collect();
        let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
        let rel = Relation::new(vec![
            Column::new("i", ColumnData::Int(ints.clone())),
            Column::new("d", ColumnData::Double(doubles)),
            Column::new("s", ColumnData::Str(StringArena::from_strs(&refs))),
        ]);
        assert_eq!(rel.rows(), n);
        let bytes = btrblocks::compress(&rel, &cfg).unwrap().to_bytes();
        let restored = btrblocks::decompress(&bytes, &cfg).unwrap();
        assert_eq!(rel, restored);
    }
}

#[test]
fn block_parallel_compression_matches_serial() {
    // Block-granular parallel compression must be byte-identical to the
    // serial path for any relation shape and any worker count — including a
    // single-column relation, where the old per-column fan-out degenerated
    // to one worker.
    let mut rng = Xorshift::new(0xB10C);
    for case in 0..CASES {
        let cfg = small_cfg(simd_mode(case));
        let ints = arb_ints(&mut rng);
        let n = ints.len();
        let doubles: Vec<f64> = (0..n).map(|_| f64::from_bits(rng.next_u64())).collect();
        let strings = arb_strings(&mut rng);
        let srefs: Vec<&[u8]> = strings.iter().map(|s| s.as_slice()).collect();
        let mut arena = StringArena::new();
        for s in srefs.iter().take(n) {
            arena.push(s);
        }
        while arena.len() < n {
            arena.push(b"pad");
        }
        let rel = Relation::new(vec![
            Column::new("i", ColumnData::Int(ints.clone())),
            Column::new("d", ColumnData::Double(doubles)),
            Column::new("s", ColumnData::Str(arena)),
        ]);
        let serial = btrblocks::compress(&rel, &cfg).unwrap();
        let single = Relation::new(vec![Column::new("only", ColumnData::Int(ints))]);
        let single_serial = btrblocks::compress(&single, &cfg).unwrap();
        for threads in [1usize, 2, 3, 8] {
            let par = btrblocks::compress_parallel(&rel, &cfg, threads).unwrap();
            assert_eq!(par, serial, "case {case} threads {threads}");
            assert_eq!(par.to_bytes(), serial.to_bytes(), "case {case} threads {threads}");
            let par = btrblocks::compress_parallel(&single, &cfg, threads).unwrap();
            assert_eq!(par, single_serial, "single column, case {case} threads {threads}");
        }
    }
}

/// A deliberately filthy out-buffer of the right type: stale contents and
/// odd capacities that `decompress_block_into` must fully overwrite.
fn dirty_decoded(ty: ColumnType, rng: &mut Xorshift) -> DecodedColumn {
    let junk = rng.gen_range(1..500usize);
    match ty {
        ColumnType::Integer => {
            DecodedColumn::Int((0..junk).map(|_| rng.next_u32() as i32).collect())
        }
        ColumnType::Double => {
            DecodedColumn::Double((0..junk).map(|_| f64::from_bits(rng.next_u64())).collect())
        }
        ColumnType::String => {
            let mut pool = vec![0u8; junk];
            rng.fill_bytes(&mut pool);
            let views = (0..junk / 8).map(|_| rng.next_u64()).collect();
            DecodedColumn::Str(StringViews { pool, views })
        }
    }
}

fn assert_decoded_bits_eq(fresh: &DecodedColumn, reused: &DecodedColumn, label: &str) {
    match (fresh, reused) {
        (DecodedColumn::Int(a), DecodedColumn::Int(b)) => assert_eq!(a, b, "{label}"),
        (DecodedColumn::Double(a), DecodedColumn::Double(b)) => {
            assert!(bits_eq(a, b), "{label}")
        }
        (DecodedColumn::Str(a), DecodedColumn::Str(b)) => {
            assert_eq!(a.len(), b.len(), "{label}");
            for i in 0..a.len() {
                assert_eq!(a.get(i), b.get(i), "{label} string {i}");
            }
        }
        _ => panic!("{label}: decoded type mismatch"),
    }
}

// `decompress_block_into` with a garbage-filled out-buffer and a dirty,
// reused scratch arena must match the allocate-fresh decode bitwise, for
// every scheme. This is the correctness half of the zero-allocation
// guarantee: buffer reuse must never leak stale state into results.
#[test]
fn dirty_scratch_decode_matches_fresh_for_every_scheme() {
    let mut rng = Xorshift::new(0x59);
    // One scratch across all cases and schemes: its pool carries buffers
    // (and their stale capacities) from every previous decode.
    let mut scratch = Scratch::new();
    for case in 0..CASES {
        let cfg = small_cfg(simd_mode(case));
        let ints = arb_ints(&mut rng);
        let doubles = arb_doubles(&mut rng);
        let strings = arb_strings(&mut rng);
        let arena = StringArena::from_strs(&strings);

        let mut jobs: Vec<(ColumnType, SchemeCode, Vec<u8>)> = Vec::new();
        for code in [
            SchemeCode::Uncompressed,
            SchemeCode::OneValue,
            SchemeCode::Rle,
            SchemeCode::Dict,
            SchemeCode::Frequency,
            SchemeCode::FastPfor,
            SchemeCode::FastBp128,
        ] {
            // OneValue only encodes constant blocks; use a constant column.
            let constant = vec![ints.first().copied().unwrap_or(7); ints.len()];
            let vals = if code == SchemeCode::OneValue { &constant } else { &ints };
            jobs.push((
                ColumnType::Integer,
                code,
                compress_block_with(code, BlockRef::Int(vals), &cfg),
            ));
        }
        for code in [
            SchemeCode::Uncompressed,
            SchemeCode::OneValue,
            SchemeCode::Rle,
            SchemeCode::Dict,
            SchemeCode::Frequency,
            SchemeCode::Pseudodecimal,
        ] {
            let constant = vec![doubles.first().copied().unwrap_or(1.5); doubles.len()];
            let vals = if code == SchemeCode::OneValue { &constant } else { &doubles };
            jobs.push((
                ColumnType::Double,
                code,
                compress_block_with(code, BlockRef::Double(vals), &cfg),
            ));
        }
        for code in [
            SchemeCode::Uncompressed,
            SchemeCode::OneValue,
            SchemeCode::Dict,
            SchemeCode::Fsst,
            SchemeCode::DictFsst,
        ] {
            let constant: Vec<&[u8]> = strings
                .iter()
                .map(|_| strings.first().map(|s| s.as_slice()).unwrap_or(b"x"))
                .collect();
            let ca = StringArena::from_strs(&constant);
            let a = if code == SchemeCode::OneValue { &ca } else { &arena };
            jobs.push((
                ColumnType::String,
                code,
                compress_block_with(code, BlockRef::Str(a), &cfg),
            ));
        }

        for (ty, code, bytes) in jobs {
            let fresh = decompress_block(&bytes, ty, &cfg).unwrap();
            let mut out = dirty_decoded(ty, &mut rng);
            decompress_block_into(&bytes, ty, &cfg, &mut scratch, &mut out)
                .unwrap_or_else(|e| panic!("scheme {code:?} case {case}: {e}"));
            assert_decoded_bits_eq(&fresh, &out, &format!("scheme {code:?} case {case}"));
            scratch.recycle(out);
        }
    }
}

// The FSST encoder resolves a position from an 8-byte load; these are the
// blocks where that load never fits (every string shorter than 8 bytes),
// where zero padding could be mistaken for data (NUL bytes in strings and
// therefore in symbols), and where one string is far longer than a block's
// worth of samples. Forced through both FSST schemes, decoded into a dirty
// out-buffer, compared byte for byte.
#[test]
fn short_and_hostile_strings_roundtrip_through_fsst() {
    let mut rng = Xorshift::new(0x5C);
    let mut scratch = Scratch::new();
    let cfg = Config::default();
    let mut blocks: Vec<Vec<Vec<u8>>> = Vec::new();
    for _ in 0..24 {
        let count = rng.gen_range(1..600usize);
        // Shorter than one load, over an alphabet small enough to train on.
        blocks.push(
            (0..count)
                .map(|_| (0..rng.gen_range(0..8usize)).map(|_| b"abc\0\xFF"[rng.gen_range(0..5usize)]).collect())
                .collect(),
        );
        // NUL-heavy strings of every length around the 8-byte boundary,
        // many of them ending in NULs or consisting of nothing else.
        blocks.push(
            (0..count)
                .map(|_| {
                    let mut s: Vec<u8> = (0..rng.gen_range(0..20usize))
                        .map(|_| if rng.gen_range(0..3u32) == 0 { b'x' } else { 0 })
                        .collect();
                    s.resize(s.len() + rng.gen_range(0..4usize), 0);
                    s
                })
                .collect(),
        );
    }
    let mut huge = vec![0u8; 70_000];
    rng.fill_bytes(&mut huge);
    blocks.push(vec![huge.clone()]);
    blocks.push(vec![b"ab\0".repeat(70_000 / 3 + 1)[..70_000].to_vec()]);
    blocks.push(vec![Vec::new(), huge, b"tail".to_vec()]);

    for (case, strings) in blocks.iter().enumerate() {
        let arena = StringArena::from_strs(strings);
        for code in [SchemeCode::Fsst, SchemeCode::DictFsst] {
            let bytes = compress_block_with(code, BlockRef::Str(&arena), &cfg);
            let mut out = dirty_decoded(ColumnType::String, &mut rng);
            decompress_block_into(&bytes, ColumnType::String, &cfg, &mut scratch, &mut out)
                .unwrap_or_else(|e| panic!("scheme {code:?} case {case}: {e}"));
            let DecodedColumn::Str(views) = &out else {
                panic!("wrong decoded type for {code:?}");
            };
            assert_eq!(views.len(), strings.len(), "scheme {code:?} case {case}");
            for (i, s) in strings.iter().enumerate() {
                assert!(views.get(i) == s.as_slice(), "scheme {code:?} case {case} string {i}");
            }
            scratch.recycle(out);
        }
    }
}

#[test]
fn decompress_never_panics_on_corrupt_bytes() {
    // Fuzzing the block parser: must return Err, never panic/UB. (The full
    // 10k-mutation campaigns live in btr-corrupt's integration tests.)
    let mut rng = Xorshift::new(0x58);
    let cfg = Config::default();
    for _ in 0..CASES {
        let len = rng.gen_range(0..300usize);
        let mut bytes = vec![0u8; len];
        rng.fill_bytes(&mut bytes);
        let _ = decompress_block(&bytes, ColumnType::Integer, &cfg);
        let _ = decompress_block(&bytes, ColumnType::Double, &cfg);
        let _ = decompress_block(&bytes, ColumnType::String, &cfg);
        // Also flip a valid block's bytes.
        let (valid, _) = compress_block(BlockRef::Int(&[1, 2, 3, 4, 5, 5, 5]), &cfg);
        for (i, b) in valid.iter().enumerate() {
            if i < bytes.len() {
                bytes[i] ^= b;
            }
        }
        let _ = decompress_block(&bytes, ColumnType::Integer, &cfg);
    }
}
