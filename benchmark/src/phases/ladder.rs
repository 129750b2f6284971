//! The bottom rungs of the layer ladder: the host's roofline, the kernel
//! crates, every legal `(type, scheme)` pair on a block built to suit it, the
//! expression kernels, and the reference formats the paper compares against.
//!
//! These inputs are fixed (64 000 values, no seed): a rung moves only when
//! its layer's code does. None of them is an end-to-end metric.

use crate::data::Prepared;
use crate::stats::median_call_s;
use crate::{Metrics, Tally};
use btr_expr::{filter_leaf, AggKind, AggState, ExprPlan, LeafInput, LeafVerdict, Selection};
use btr_lz::Codec;
use btr_roaring::RoaringBitmap;
use btr_s3sim::{CostModel, ScanStats, DEFAULT_CHUNK};
use btrblocks::block::{compress_block_with_into, BlockRef};
use btrblocks::{
    CmpOp, Column, ColumnData, ColumnType, Config, DecodeScratch, DecodedColumn, EncodeScratch,
    Literal, Relation, SchemeCode, StringArena,
};
use std::hint::black_box;

/// Values per ladder input: one default block.
const N: usize = 64_000;

/// Deterministic pseudo-random stream for ladder inputs (Knuth's
/// multiplicative hash of the index).
fn scatter(i: usize) -> u32 {
    (i as u32).wrapping_mul(2_654_435_761)
}

fn urls(n: usize, distinct: usize) -> StringArena {
    let strings: Vec<String> = (0..n)
        .map(|i| {
            let k = scatter(i % distinct) as usize;
            format!(
                "https://data.example.com/u/{}/events?page={}",
                k % 97,
                k % 100_003
            )
        })
        .collect();
    StringArena::from_strs(&strings)
}

/// `host.*`: what the machine can do, so every GB/s above has a denominator
/// and a noisy host shows up as a moving memcpy.
pub fn host(budget: f64, m: &mut Metrics) {
    let src = vec![1u8; 64 << 20];
    let mut dst = vec![0u8; 64 << 20];
    let s = median_call_s(budget, 5, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    m.put("host.memcpy_gbps", src.len() as f64 / 1e9 / s);
    m.put(
        "host.nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
}

/// `btr-bitpacking.*`, `btr-fsst.*`, `btr-roaring.*`.
pub fn kernels(budget: f64, m: &mut Metrics, tally: &mut Tally) {
    let gbps = |bytes: usize, s: f64| bytes as f64 / 1e9 / s;

    let narrow: Vec<u32> = (0..N).map(|i| scatter(i) % 1024).collect();
    let mut patched = narrow.clone();
    patched.iter_mut().step_by(128).for_each(|v| *v = u32::MAX);
    let mut buf = Vec::new();
    {
        use btr_bitpacking::bp128;
        let packed = bp128::encode(&narrow);
        tally.check(bp128::decode(&packed).is_ok_and(|v| v == narrow));
        let s = median_call_s(budget, 3, || {
            bp128::encode_into(black_box(&narrow), &mut buf)
        });
        m.put("btr-bitpacking.bp128_encode_gbps", gbps(N * 4, s));
        let s = median_call_s(budget, 3, || {
            drop(bp128::decode_into(black_box(&packed), &mut buf))
        });
        m.put("btr-bitpacking.bp128_decode_gbps", gbps(N * 4, s));
    }
    {
        use btr_bitpacking::fastpfor;
        let packed = fastpfor::encode(&patched);
        tally.check(fastpfor::decode(&packed).is_ok_and(|v| v == patched));
        let s = median_call_s(budget, 3, || {
            fastpfor::encode_into(black_box(&patched), &mut buf)
        });
        m.put("btr-bitpacking.fastpfor_encode_gbps", gbps(N * 4, s));
        let s = median_call_s(budget, 3, || {
            drop(fastpfor::decode_into(black_box(&packed), &mut buf))
        });
        m.put("btr-bitpacking.fastpfor_decode_gbps", gbps(N * 4, s));
    }
    {
        let arena = urls(N, N);
        let strings: Vec<&[u8]> = arena.iter().collect();
        let total = arena.total_bytes();
        let sample = &strings[..strings.len().min(4_096)];
        let s = median_call_s(budget, 3, || {
            drop(black_box(btr_fsst::SymbolTable::train(black_box(sample))))
        });
        m.put("btr-fsst.train_ms", s * 1e3);
        let table = btr_fsst::SymbolTable::train(sample);
        let mut packed = Vec::with_capacity(total);
        let encode = |packed: &mut Vec<u8>| {
            packed.clear();
            strings.iter().for_each(|s| table.compress(s, packed));
        };
        let s = median_call_s(budget, 3, || encode(&mut packed));
        m.put("btr-fsst.encode_gbps", gbps(total, s));
        encode(&mut packed);
        let mut plain = Vec::with_capacity(total + 8);
        let s = median_call_s(budget, 3, || {
            plain.clear();
            drop(table.decompress(black_box(&packed), &mut plain));
        });
        m.put("btr-fsst.decode_gbps", gbps(total, s));
        tally.check(plain.len() == total);
    }
    {
        let evens = RoaringBitmap::from_sorted_iter((0..N as u32).map(|i| i * 2));
        let thirds = RoaringBitmap::from_sorted_iter((0..N as u32).map(|i| i * 3));
        let bytes = evens.serialize();
        let s = median_call_s(budget, 3, || {
            let bitmap = RoaringBitmap::deserialize(black_box(&bytes));
            black_box(bitmap.map(|b| b.iter().map(u64::from).sum::<u64>()).ok());
        });
        m.put("btr-roaring.decode_ns_per_value", s * 1e9 / N as f64);
        let s = median_call_s(budget, 3, || {
            drop(black_box(evens.intersection(black_box(&thirds))))
        });
        m.put("btr-roaring.and_ns_per_value", s * 1e9 / N as f64);
        tally.check(evens.intersection(&thirds).cardinality() == (N as u64 * 2).div_ceil(6));
    }
}

fn block_of(data: &ColumnData) -> BlockRef<'_> {
    match data {
        ColumnData::Int(v) => BlockRef::Int(v),
        ColumnData::Double(v) => BlockRef::Double(v),
        ColumnData::Str(a) => BlockRef::Str(a),
    }
}

/// The 13 legal `(type, scheme)` pairs.
pub const SCHEME_PAIRS: [(&str, SchemeCode); 13] = [
    ("int_onevalue", SchemeCode::OneValue),
    ("int_rle", SchemeCode::Rle),
    ("int_dict", SchemeCode::Dict),
    ("int_frequency", SchemeCode::Frequency),
    ("int_bp128", SchemeCode::FastBp128),
    ("int_pfor", SchemeCode::FastPfor),
    ("double_rle", SchemeCode::Rle),
    ("double_dict", SchemeCode::Dict),
    ("double_frequency", SchemeCode::Frequency),
    ("double_pde", SchemeCode::Pseudodecimal),
    ("str_dict", SchemeCode::Dict),
    ("str_fsst", SchemeCode::Fsst),
    ("str_dictfsst", SchemeCode::DictFsst),
];

/// A 64 000-value block that suits the named pair's scheme.
fn scheme_input(name: &str) -> ColumnData {
    let runs = |i: usize| i / 37;
    let skewed = |i: usize| {
        if scatter(i).is_multiple_of(20) {
            scatter(i) % 5_000
        } else {
            7
        }
    };
    let ints = |f: &dyn Fn(usize) -> i32| ColumnData::Int((0..N).map(f).collect());
    let doubles = |f: &dyn Fn(usize) -> f64| ColumnData::Double((0..N).map(f).collect());
    match name {
        "int_onevalue" => ints(&|_| 42),
        "int_rle" => ints(&|i| runs(i) as i32),
        "int_dict" => ints(&|i| (scatter(i) % 4_096 * 7_919) as i32),
        "int_frequency" => ints(&|i| skewed(i) as i32),
        "int_bp128" => ints(&|i| (scatter(i) % 1_024) as i32),
        "int_pfor" => ints(&|i| {
            if i % 128 == 0 {
                i32::MAX
            } else {
                (scatter(i) % 1_024) as i32
            }
        }),
        "double_rle" => doubles(&|i| runs(i) as f64 * 0.5),
        "double_dict" => doubles(&|i| f64::from(scatter(i) % 1_000) * 0.25),
        "double_frequency" => doubles(&|i| f64::from(skewed(i))),
        "double_pde" => doubles(&|i| f64::from(scatter(i) % 100_000) * 0.01),
        "str_dict" => ColumnData::Str(urls(N, 211)),
        "str_fsst" => ColumnData::Str(urls(N, N)),
        "str_dictfsst" => ColumnData::Str(urls(N, 5_000)),
        other => panic!("no ladder input for scheme pair {other}"),
    }
}

/// `btrblocks.scheme.<type>_<scheme>_{decode_gbps,encode_mbps}`.
pub fn schemes(budget: f64, m: &mut Metrics, tally: &mut Tally) {
    let cfg = Config::default();
    let mut encode_scratch = EncodeScratch::new();
    let mut decode_scratch = DecodeScratch::new();
    let mut bytes = Vec::new();
    for (name, code) in SCHEME_PAIRS {
        let input = scheme_input(name);
        let block = block_of(&input);
        let (ty, heap) = (block.column_type(), block.heap_size() as f64);
        let s = median_call_s(budget, 3, || {
            compress_block_with_into(
                code,
                black_box(block),
                &cfg,
                &mut encode_scratch,
                &mut bytes,
            );
        });
        m.put(
            &format!("btrblocks.scheme.{name}_encode_mbps"),
            heap / 1e6 / s,
        );
        let mut out = decode_scratch.lease_decoded(ty);
        let s = median_call_s(budget, 3, || {
            drop(btrblocks::decompress_block_into(
                black_box(&bytes),
                ty,
                &cfg,
                &mut decode_scratch,
                &mut out,
            ));
        });
        m.put(
            &format!("btrblocks.scheme.{name}_decode_gbps"),
            heap / 1e9 / s,
        );
        // The ladder inputs hold no NaN, so `==` on doubles is exact here.
        tally.check(btrblocks::peek_scheme(&bytes) == Ok(code) && out.into_column_data() == input);
    }
}

/// `btr-expr.*`: plan compilation, the leaf filter in both domains, selection
/// intersection, and the decoded aggregate fold.
pub fn expr(p: &Prepared, budget: f64, m: &mut Metrics, tally: &mut Tally) {
    let filter = p.filter().filter().expect("the filter class has leaves");
    let schema: Vec<(&str, ColumnType)> = p
        .relation
        .columns
        .iter()
        .map(|c| (c.name.as_str(), c.data.column_type()))
        .collect();
    let resolve = |name: &str| {
        schema
            .iter()
            .position(|(n, _)| *n == name)
            .map(|i| (i, schema[i].1))
    };
    tally.check(ExprPlan::compile(&filter, resolve).is_ok());
    let s = median_call_s(budget, 3, || {
        drop(black_box(ExprPlan::compile(black_box(&filter), resolve)))
    });
    m.put("btr-expr.compile_us", s * 1e6);

    let cfg = Config::default();
    let values: Vec<i32> = (0..N).map(|i| (i / 37) as i32).collect();
    let mut bytes = Vec::new();
    compress_block_with_into(
        SchemeCode::Rle,
        BlockRef::Int(&values),
        &cfg,
        &mut EncodeScratch::new(),
        &mut bytes,
    );
    let literal = Literal::Int((N / 74) as i32);
    let compressed = || {
        filter_leaf(
            LeafInput::Compressed {
                bytes: &bytes,
                ty: ColumnType::Integer,
                config: &cfg,
            },
            CmpOp::Lt,
            &literal,
        )
    };
    let decoded_block = DecodedColumn::Int(values.clone());
    let decoded = || filter_leaf(LeafInput::Decoded(&decoded_block), CmpOp::Lt, &literal);
    let selected = |v: btrblocks::Result<LeafVerdict>, fast: bool| match v {
        Ok(LeafVerdict::Selected {
            rows,
            compressed_domain,
        }) => compressed_domain == fast && rows.cardinality() == (N / 74 * 37) as u64,
        _ => false,
    };
    tally.check(selected(compressed(), true) && selected(decoded(), false));
    let s = median_call_s(budget, 3, || drop(black_box(compressed())));
    m.put("btr-expr.filter_leaf_fast_ns_per_row", s * 1e9 / N as f64);
    let s = median_call_s(budget, 3, || drop(black_box(decoded())));
    m.put("btr-expr.filter_decoded_ns_per_row", s * 1e9 / N as f64);

    let rows = N as u32;
    let a = Selection::from_bitmap(
        rows,
        RoaringBitmap::from_sorted_iter((0..rows).filter(|i| i % 2 == 0)),
    );
    let b = Selection::from_bitmap(
        rows,
        RoaringBitmap::from_sorted_iter((0..rows).filter(|i| i % 3 == 0)),
    );
    tally.check(a.intersect(&b).cardinality() == rows.div_ceil(6));
    let s = median_call_s(budget, 3, || drop(black_box(a.intersect(black_box(&b)))));
    // Both inputs, one bit a row each.
    m.put("btr-expr.selection_and_gbps", (2 * N / 8) as f64 / 1e9 / s);

    let doubles = DecodedColumn::Double((0..N).map(|i| f64::from(scatter(i) % 1_000)).collect());
    let s = median_call_s(budget, 3, || {
        let mut state =
            AggState::new(AggKind::Sum, ColumnType::Double).expect("SUM over doubles is legal");
        drop(state.fold_decoded(black_box(&doubles), None));
        black_box(state.value());
    });
    m.put("btr-expr.agg_fold_ns_per_row", s * 1e9 / N as f64);
}

/// The first `rows` rows of `rel`.
fn head(rel: &Relation, rows: usize) -> Relation {
    let rows = rows.min(rel.rows());
    Relation::new(
        rel.columns
            .iter()
            .map(|c| {
                let data = match &c.data {
                    ColumnData::Int(v) => ColumnData::Int(v[..rows].to_vec()),
                    ColumnData::Double(v) => ColumnData::Double(v[..rows].to_vec()),
                    ColumnData::Str(a) => ColumnData::Str(a.gather(0..rows)),
                };
                Column::new(c.name.clone(), data)
            })
            .collect(),
    )
}

/// `parquet-lite.*`, `orc-lite.*`: the paper's comparison formats on the
/// first block of every column of this workload's relation, same host.
pub fn references(p: &Prepared, budget: f64, m: &mut Metrics, tally: &mut Tally) {
    let rel = head(&p.relation, p.cfg.block_size);
    let heap = rel.heap_size() as f64;
    for (name, codec) in [
        ("plain", Codec::None),
        ("snappy", Codec::SnappyLike),
        ("zstd", Codec::Heavy),
    ] {
        let opts = parquet_lite::WriteOptions {
            codec,
            ..parquet_lite::WriteOptions::default()
        };
        let bytes = parquet_lite::write(&rel, &opts);
        tally.check(parquet_lite::read(&bytes).is_ok_and(|r| r == rel));
        let s = median_call_s(budget, 2, || {
            drop(black_box(parquet_lite::read(black_box(&bytes))))
        });
        m.put(&format!("parquet-lite.{name}_decode_gbps"), heap / 1e9 / s);
        if codec != Codec::None {
            m.put(
                &format!("parquet-lite.{name}_ratio"),
                heap / bytes.len() as f64,
            );
        }
        if codec == Codec::SnappyLike {
            let s = median_call_s(budget, 2, || {
                drop(black_box(parquet_lite::write(black_box(&rel), &opts)))
            });
            m.put("parquet-lite.snappy_encode_mbps", heap / 1e6 / s);
        }
    }
    let bytes = orc_lite::write(&rel, &orc_lite::WriteOptions::default());
    tally.check(orc_lite::read(&bytes).is_ok_and(|r| r == rel));
    let s = median_call_s(budget, 2, || {
        drop(black_box(orc_lite::read(black_box(&bytes))))
    });
    m.put("orc-lite.decode_gbps", heap / 1e9 / s);
}

/// `btr-s3sim.*`: the paper's Table 5 model (c5n.18xlarge, 100 Gbit/s,
/// 16 MB GETs) fed with this host's measured single-thread decode time,
/// scaled to the instance's cores.
pub fn scan_cost(p: &Prepared, decode_s: f64, m: &mut Metrics) {
    let model = CostModel::default();
    let compressed = p.bytes.len() as u64;
    let mut stats = ScanStats {
        requests: compressed.div_ceil(DEFAULT_CHUNK as u64).max(1),
        compressed_bytes: compressed,
        uncompressed_bytes: p.relation.heap_size() as u64,
        cpu_seconds: decode_s / model.cores as f64,
        ..ScanStats::default()
    };
    stats.network_seconds = model.network_seconds(stats.compressed_bytes, stats.requests);
    stats.duration_seconds = stats.network_seconds.max(stats.cpu_seconds);
    m.put(
        "btr-s3sim.scan_cost_usd_per_tb",
        model.scan_cost_usd(&stats) / (stats.uncompressed_bytes as f64 / 1e12),
    );
    m.put("btr-s3sim.tc_gbit_s", stats.t_c_gbit_per_s());
}
