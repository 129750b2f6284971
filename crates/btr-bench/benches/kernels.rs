//! Microbenchmarks for the decompression kernels of paper §5 and the
//! substrate codecs: bit-packing, FastPFOR, FSST, Roaring, Pseudodecimal,
//! RLE/Dict SIMD-vs-scalar, and the general-purpose byte codecs.
//!
//! Plain `main()` harness (no external bench framework): each workload is
//! warmed up, then timed over enough iterations to fill ~200 ms, reporting
//! ns/iter and throughput where a byte count is known.

use btrblocks::scheme::double::decimal;
use btrblocks::{simd, SimdMode};
use std::hint::black_box;
use std::time::Instant;

const N: usize = 64_000;

fn bench(name: &str, bytes: Option<usize>, mut f: impl FnMut()) {
    for _ in 0..3 {
        f();
    }
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= 0.2 || iters >= 1 << 20 {
            let per_iter = elapsed / iters as f64;
            let throughput = bytes
                .map(|b| format!("  {:8.1} MB/s", b as f64 / per_iter / 1e6))
                .unwrap_or_default();
            println!("{name:<32} {:>12.0} ns/iter{throughput}", per_iter * 1e9);
            return;
        }
        iters = iters.saturating_mul((0.25 / elapsed.max(1e-9)).ceil() as u64).max(iters + 1);
    }
}

fn bitpacking() {
    let values: Vec<u32> = (0..N as u32).map(|i| i % 1024).collect();
    let bp = btr_bitpacking::bp128::encode(&values);
    bench("bp128_encode", Some(N * 4), || {
        black_box(btr_bitpacking::bp128::encode(black_box(&values)));
    });
    bench("bp128_decode", Some(N * 4), || {
        black_box(btr_bitpacking::bp128::decode(black_box(&bp)).unwrap());
    });
    let mut outliers = values.clone();
    for i in (0..N).step_by(128) {
        outliers[i] = u32::MAX;
    }
    let pf = btr_bitpacking::fastpfor::encode(&outliers);
    bench("fastpfor_encode", Some(N * 4), || {
        black_box(btr_bitpacking::fastpfor::encode(black_box(&outliers)));
    });
    bench("fastpfor_decode", Some(N * 4), || {
        black_box(btr_bitpacking::fastpfor::decode(black_box(&pf)).unwrap());
    });
}

fn rle_dict_simd() {
    // RLE decode: 64k values in runs of ~37.
    let run_values: Vec<i32> = (0..(N / 37 + 1) as i32).collect();
    let lengths: Vec<u32> = run_values.iter().map(|_| 37).collect();
    let total: usize = lengths.iter().map(|&l| l as usize).sum();
    for (name, mode) in [("rle_decode_i32/avx2", SimdMode::Auto), ("rle_decode_i32/scalar", SimdMode::ForceScalar)] {
        bench(name, Some(total * 4), || {
            black_box(simd::rle_decode_i32(
                black_box(&run_values),
                black_box(&lengths),
                total,
                mode,
            ));
        });
    }

    let dict: Vec<i32> = (0..4_096).collect();
    let codes: Vec<u32> = (0..N as u32).map(|i| (i * 2_654_435_761) % 4_096).collect();
    for (name, mode) in [("dict_decode_i32/avx2", SimdMode::Auto), ("dict_decode_i32/scalar", SimdMode::ForceScalar)] {
        bench(name, Some(N * 4), || {
            black_box(simd::dict_decode_i32(black_box(&codes), black_box(&dict), mode));
        });
    }
}

fn fsst() {
    let strings: Vec<String> = (0..5_000)
        .map(|i| format!("https://data.example.com/u/{}/events?page={}", i % 97, i))
        .collect();
    let refs: Vec<&[u8]> = strings.iter().map(|s| s.as_bytes()).collect();
    let total: usize = refs.iter().map(|s| s.len()).sum();
    let table = btr_fsst::SymbolTable::train(&refs);
    let mut compressed = Vec::new();
    for s in &refs {
        table.compress(s, &mut compressed);
    }
    bench("fsst_train", Some(total), || {
        black_box(btr_fsst::SymbolTable::train(black_box(&refs)));
    });
    bench("fsst_compress", Some(total), || {
        let mut out = Vec::with_capacity(total);
        for s in &refs {
            table.compress(black_box(s), &mut out);
        }
        black_box(out);
    });
    bench("fsst_decompress_block", Some(total), || {
        let mut out = Vec::with_capacity(total + 8);
        table.decompress(black_box(&compressed), &mut out).unwrap();
        black_box(out);
    });
}

fn roaring() {
    let sparse: Vec<u32> = (0..N as u32).filter(|i| i % 97 == 0).collect();
    bench("roaring_from_sorted", None, || {
        black_box(btr_roaring::RoaringBitmap::from_sorted_iter(
            black_box(&sparse).iter().copied(),
        ));
    });
    let bm = btr_roaring::RoaringBitmap::from_sorted_iter(sparse.iter().copied());
    bench("roaring_contains_probe", None, || {
        let mut hits = 0u32;
        for i in (0..N as u32).step_by(4) {
            hits += u32::from(bm.contains(black_box(i)));
        }
        black_box(hits);
    });
    let bytes = bm.serialize();
    bench("roaring_deserialize", None, || {
        black_box(btr_roaring::RoaringBitmap::deserialize(black_box(&bytes)).unwrap());
    });
}

fn pseudodecimal() {
    let prices: Vec<f64> = (0..N).map(|i| ((i * 37) % 100_000) as f64 * 0.01).collect();
    bench("pseudodecimal_encode", Some(N * 8), || {
        let mut ok = 0usize;
        for &v in black_box(&prices) {
            ok += usize::from(decimal::encode_single(v).is_some());
        }
        black_box(ok);
    });
    let cfg = btrblocks::Config::default();
    let mut block = Vec::new();
    btrblocks::scheme::compress_double_with_into(
        btrblocks::SchemeCode::Pseudodecimal,
        &prices,
        3,
        &cfg,
        &mut btrblocks::EncodeScratch::new(),
        &mut block,
    );
    let scalar_cfg = btrblocks::Config {
        simd: SimdMode::ForceScalar,
        ..btrblocks::Config::default()
    };
    for (name, cfg) in [
        ("pseudodecimal_decode_avx2", &cfg),
        ("pseudodecimal_decode_scalar", &scalar_cfg),
    ] {
        let mut scratch = btrblocks::DecodeScratch::new();
        let mut out = Vec::new();
        bench(name, Some(N * 8), || {
            let mut r = btrblocks::writer::Reader::new(black_box(&block));
            btrblocks::scheme::decompress_double_into(&mut r, cfg, &mut scratch, &mut out).unwrap();
            black_box(&out);
        });
    }
}

fn byte_codecs() {
    let text = b"request served path=/api/v1/users status=200 latency_ms=13 ".repeat(2_000);
    for codec in [btr_lz::Codec::SnappyLike, btr_lz::Codec::Heavy] {
        let compressed = codec.compress(&text);
        bench(&format!("{}_compress", codec.name()), Some(text.len()), || {
            black_box(codec.compress(black_box(&text)));
        });
        bench(&format!("{}_decompress", codec.name()), Some(text.len()), || {
            black_box(codec.decompress(black_box(&compressed)).unwrap());
        });
    }
}

fn float_codecs() {
    let values: Vec<f64> = (0..N).map(|i| 1000.0 + (i as f64) * 0.25).collect();
    for codec in btr_float::FloatCodec::ALL {
        let compressed = codec.compress(&values);
        bench(&format!("{}_decompress", codec.name()), Some(N * 8), || {
            black_box(codec.decompress(black_box(&compressed)).unwrap());
        });
    }
}

fn main() {
    bitpacking();
    rle_dict_simd();
    fsst();
    roaring();
    pseudodecimal();
    byte_codecs();
    float_codecs();
}
