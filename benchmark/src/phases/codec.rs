//! The codec phases: `decode` (file bytes → values) and `encode` (values →
//! file bytes). Single thread; planner, expression engine, cache and service
//! do nothing here.

use crate::alloc::count_allocs;
use crate::data::Prepared;
use crate::oracle::relations_identical;
use crate::stats::{median, sample, time};
use crate::trace::{self, span, ByRequest};
use crate::{Load, Metrics, Tally};
use btrblocks::block::{compress_block_into, BlockRef};
use btrblocks::scheme::{pick_double, pick_int, pick_str};
use btrblocks::stats::{DoubleStats, IntegerStats, StringStats};
use btrblocks::{
    ColumnData, ColumnType, CompressedRelation, DecodeScratch, DecodedColumn, EncodeScratch,
    Sidecar, StringArena,
};
use std::hint::black_box;

fn type_span(ty: ColumnType) -> &'static str {
    match ty {
        ColumnType::Integer => "decode_int",
        ColumnType::Double => "decode_double",
        ColumnType::String => "decode_str",
    }
}

/// One scan-style decode of the file: parse + verify checksums, then decode
/// every block into one reused buffer with a warm scratch. Strings stay
/// `(offset, len)` views, as a scan consumer takes them.
fn scan_decode(p: &Prepared, scratch: &mut DecodeScratch, out: &mut DecodedColumn) -> bool {
    let parsed = {
        let _s = span("from_bytes");
        CompressedRelation::from_bytes(black_box(&p.bytes))
    };
    let Ok(parsed) = parsed else { return false };
    let _s = span("block_decode");
    let mut values = 0usize;
    for col in &parsed.columns {
        let _c = span(type_span(col.column_type));
        for block in &col.blocks {
            if btrblocks::decompress_block_into(block, col.column_type, &p.cfg, scratch, out)
                .is_err()
            {
                return false;
            }
            values += black_box(&*out).len();
        }
    }
    values == p.relation.rows() * p.relation.columns.len()
}

/// The codec phases' share of an end-to-end round: three scan-style decodes,
/// two owned decompressions, one encode.
pub struct CodecLoad<'a> {
    p: &'a Prepared,
    scratch: DecodeScratch,
    out: DecodedColumn,
    scan: Vec<f64>,
    owned: Vec<f64>,
    encode: Vec<f64>,
}

impl<'a> CodecLoad<'a> {
    pub fn new(p: &'a Prepared, tally: &mut Tally) -> CodecLoad<'a> {
        let mut scratch = DecodeScratch::new();
        let mut out = scratch.lease_decoded(ColumnType::Integer);
        tally.check(scan_decode(p, &mut scratch, &mut out)); // warms the scratch
        CodecLoad {
            p,
            scratch,
            out,
            scan: Vec::new(),
            owned: Vec::new(),
            encode: Vec::new(),
        }
    }
}

impl Load for CodecLoad<'_> {
    fn step(&mut self, tally: &mut Tally) {
        let p = self.p;
        for _ in 0..3 {
            let (ok, s) = time(|| scan_decode(p, &mut self.scratch, &mut self.out));
            tally.check(ok);
            self.scan.push(s);
        }
        for _ in 0..2 {
            let (rel, s) = time(|| btrblocks::decompress(black_box(&p.bytes), &p.cfg));
            // The bit-exact comparison runs once; later iterations check shape.
            tally.check(match &rel {
                Ok(rel) if self.owned.is_empty() => relations_identical(rel, &p.relation),
                Ok(rel) => rel.rows() == p.relation.rows(),
                Err(_) => false,
            });
            self.owned.push(s);
        }
        let (bytes, s) =
            time(|| btrblocks::compress(black_box(&p.relation), &p.cfg).map(|c| c.to_bytes()));
        // Compression is deterministic: every run must reproduce the file.
        tally.check(bytes.is_ok_and(|b| b == p.bytes));
        self.encode.push(s);
    }

    fn finish(&self, m: &mut Metrics) {
        let heap = self.p.relation.heap_size() as f64;
        m.put("decode_scan_gbps", heap / 1e9 / median(&self.scan));
        m.put("decompress_gbps", heap / 1e9 / median(&self.owned));
        m.put("encode_mbps", heap / 1e6 / median(&self.encode));
        m.put("compression_ratio", heap / self.p.bytes.len() as f64);
        m.note_samples("decode_scan", self.scan.len());
        m.note_samples("decompress", self.owned.len());
        m.note_samples("encode", self.encode.len());
    }
}

/// Summed per-op medians of the traced codec operations, for the
/// tracing-overhead comparison.
pub struct CodecWalls {
    pub decode_s: f64,
    pub encode_s: f64,
}

/// Runs `iters` scan-style decodes, each its own request; returns the request
/// numbers and the median wall seconds.
fn decode_requests(p: &Prepared, seconds: f64, tally: &mut Tally) -> (Vec<u64>, f64) {
    let mut scratch = DecodeScratch::new();
    let mut out = scratch.lease_decoded(ColumnType::Integer);
    tally.check(scan_decode(p, &mut scratch, &mut out));
    let mut requests = Vec::new();
    let walls = sample(seconds, 3, |_| {
        requests.push(trace::begin_request());
        let _s = span("scan_decode");
        let (ok, s) = time(|| scan_decode(p, &mut scratch, &mut out));
        tally.check(ok);
        s
    });
    (requests, median(&walls))
}

/// The benchmark's own block-at-a-time encode, one span per stage, so the
/// codec's hidden stages get a time each. Returns whether the bytes match
/// what `btrblocks::compress` produced.
fn staged_encode(p: &Prepared) -> bool {
    let _root = span("staged_encode");
    let mut scratch = EncodeScratch::new();
    let mut buf = Vec::new();
    let mut slice = StringArena::new();
    let mut same = true;
    for (col, compressed) in p.relation.columns.iter().zip(&p.compressed.columns) {
        let rows = col.data.len();
        for (b, start) in (0..rows).step_by(p.cfg.block_size).enumerate() {
            let end = (start + p.cfg.block_size).min(rows);
            let block = match &col.data {
                ColumnData::Int(v) => BlockRef::Int(&v[start..end]),
                ColumnData::Double(v) => BlockRef::Double(&v[start..end]),
                ColumnData::Str(a) => {
                    a.gather_into(start..end, &mut slice);
                    BlockRef::Str(&slice)
                }
            };
            {
                let _s = span("stats");
                match block {
                    BlockRef::Int(v) => drop(black_box(IntegerStats::collect(v))),
                    BlockRef::Double(v) => drop(black_box(DoubleStats::collect(v))),
                    BlockRef::Str(a) => drop(black_box(StringStats::collect(a))),
                }
            }
            {
                // `pick_*` collects the statistics again before selecting;
                // `btrblocks.pick_ms` subtracts the stage above.
                let _s = span("pick");
                let depth = p.cfg.max_cascade_depth;
                black_box(match block {
                    BlockRef::Int(v) => pick_int(v, depth, &p.cfg),
                    BlockRef::Double(v) => pick_double(v, depth, &p.cfg),
                    BlockRef::Str(a) => pick_str(a, depth, &p.cfg),
                });
            }
            {
                let _s = span("compress_block");
                compress_block_into(block, &p.cfg, &mut scratch, &mut buf);
            }
            same &= compressed.blocks.get(b) == Some(&buf);
        }
    }
    same
}

/// Per-layer codec metrics from a traced pass over the same inputs.
pub fn traced(
    p: &Prepared,
    seconds: f64,
    m: &mut Metrics,
    tally: &mut Tally,
) -> (CodecWalls, CodecWalls) {
    let heap = p.relation.heap_size() as f64;

    // ---- decode: untraced then traced, same code.
    trace::set_enabled(false);
    let (_, decode_off) = decode_requests(p, seconds * 0.15, tally);
    trace::set_enabled(true);
    let (requests, decode_on) = decode_requests(p, seconds * 0.15, tally);
    let spans = ByRequest::new(&trace::recent());
    let from_bytes = median(&spans.total_s(&requests, "from_bytes"));
    let block_decode = median(&spans.total_s(&requests, "block_decode"));
    m.put("btrblocks.from_bytes_ms", from_bytes * 1e3);
    m.put("btrblocks.block_decode_ms", block_decode * 1e3);
    for (ty, span_name, metric) in [
        (
            ColumnType::Integer,
            "decode_int",
            "btrblocks.decode_int_gbps",
        ),
        (
            ColumnType::Double,
            "decode_double",
            "btrblocks.decode_double_gbps",
        ),
        (
            ColumnType::String,
            "decode_str",
            "btrblocks.decode_str_gbps",
        ),
    ] {
        let bytes: usize = typed(p, ty).map(|(col, _)| col.data.heap_size()).sum();
        m.put(
            metric,
            bytes as f64 / 1e9 / median(&spans.total_s(&requests, span_name)),
        );
    }
    trace::set_enabled(false);

    m.put("btrblocks.crc32c_gbps", {
        let s = crate::stats::median_call_s(seconds * 0.03, 3, || {
            black_box(btrblocks::crc32c::crc32c(black_box(&p.bytes)));
        });
        p.bytes.len() as f64 / 1e9 / s
    });

    let decompress = median(&sample(seconds * 0.08, 3, |_| {
        let (rel, s) = time(|| btrblocks::decompress(black_box(&p.bytes), &p.cfg));
        tally.check(rel.is_ok());
        s
    }));
    m.put(
        "btrblocks.assemble_ms",
        (decompress - from_bytes - block_decode) * 1e3,
    );

    {
        let mut scratch = DecodeScratch::new();
        let mut out = scratch.lease_decoded(ColumnType::Integer);
        let pass = |scratch: &mut DecodeScratch, out: &mut DecodedColumn| {
            for col in &p.compressed.columns {
                for block in &col.blocks {
                    let _ = btrblocks::decompress_block_into(
                        block,
                        col.column_type,
                        &p.cfg,
                        scratch,
                        out,
                    );
                }
            }
        };
        pass(&mut scratch, &mut out);
        pass(&mut scratch, &mut out);
        let ((), allocs) = count_allocs(|| pass(&mut scratch, &mut out));
        m.put("btrblocks.warm_decode_allocs", allocs as f64);
    }

    let parallel = |threads: usize, tally: &mut Tally| {
        median(&sample(seconds * 0.04, 3, |_| {
            let (rel, s) = time(|| btrblocks::decompress_parallel(&p.compressed, &p.cfg, threads));
            tally.check(rel.is_ok());
            s
        }))
    };
    let (t1, t2) = (parallel(1, tally), parallel(2, tally));
    m.put("btrblocks.parallel_decode_gbps_t2", heap / 1e9 / t2);
    m.put("btrblocks.parallel_decode_speedup_t2", t1 / t2);

    // ---- encode: the staged pass, untraced then traced.
    let staged = |tally: &mut Tally, budget: f64| {
        let mut requests = Vec::new();
        let walls = sample(budget, 2, |_| {
            requests.push(trace::begin_request());
            let (same, s) = time(|| staged_encode(p));
            tally.check(same);
            s
        });
        (requests, median(&walls))
    };
    let (_, encode_off) = staged(tally, seconds * 0.12);
    trace::set_enabled(true);
    let (requests, encode_on) = staged(tally, seconds * 0.12);
    let to_bytes_req = trace::begin_request();
    {
        let _s = span("to_bytes");
        tally.check(black_box(p.compressed.to_bytes()) == p.bytes);
    }
    {
        let _s = span("sidecar_build");
        tally.check(Sidecar::build(&p.relation, p.cfg.block_size) == p.sidecar);
    }
    let spans = ByRequest::new(&trace::recent());
    trace::set_enabled(false);
    let stats = median(&spans.total_s(&requests, "stats"));
    let pick = (median(&spans.total_s(&requests, "pick")) - stats).max(0.0);
    let blocks = median(&spans.total_s(&requests, "compress_block"));
    m.put("btrblocks.stats_ms", stats * 1e3);
    m.put("btrblocks.pick_ms", pick * 1e3);
    m.put("btrblocks.selection_share", pick / blocks);
    m.put("btrblocks.compress_blocks_ms", blocks * 1e3);
    m.put(
        "btrblocks.to_bytes_ms",
        spans.total_s(&[to_bytes_req], "to_bytes")[0] * 1e3,
    );
    m.put(
        "btrblocks.sidecar_build_ms",
        spans.total_s(&[to_bytes_req], "sidecar_build")[0] * 1e3,
    );

    let t2 = median(&sample(seconds * 0.08, 2, |_| {
        let (c, s) = time(|| btrblocks::compress_parallel(&p.relation, &p.cfg, 2));
        tally.check(c.is_ok_and(|c| c == p.compressed));
        s
    }));
    m.put("btrblocks.parallel_encode_mbps_t2", heap / 1e6 / t2);

    for (ty, metric) in [
        (ColumnType::Integer, "btrblocks.ratio_int"),
        (ColumnType::Double, "btrblocks.ratio_double"),
        (ColumnType::String, "btrblocks.ratio_str"),
    ] {
        let (raw, packed) = typed(p, ty).fold((0usize, 0usize), |(raw, packed), (col, c)| {
            (raw + col.data.heap_size(), packed + c.compressed_size())
        });
        m.put(metric, raw as f64 / packed as f64);
    }
    m.put("btrblocks.compressed_bytes", p.bytes.len() as f64);

    (
        CodecWalls {
            decode_s: decode_off,
            encode_s: encode_off,
        },
        CodecWalls {
            decode_s: decode_on,
            encode_s: encode_on,
        },
    )
}

/// The relation's columns of one type, paired with their compressed form.
fn typed(
    p: &Prepared,
    ty: ColumnType,
) -> impl Iterator<Item = (&btrblocks::Column, &btrblocks::CompressedColumn)> {
    p.relation
        .columns
        .iter()
        .zip(&p.compressed.columns)
        .filter(move |(_, c)| c.column_type == ty)
}
