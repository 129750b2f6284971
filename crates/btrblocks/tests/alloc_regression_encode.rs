//! Zero-allocation warm encode: the central guarantee of `Scratch`.
//!
//! This binary installs btr-corrupt's tracking allocator as the global
//! allocator, compresses a relation's blocks once cold (populating the
//! scratch pool and the output buffer), then compresses the same blocks
//! again warm via `compress_block_into` through one reused output buffer and
//! asserts the warm pass performs **zero** heap allocations.
//!
//! The scheme pool is restricted to the schemes whose encode path is fully
//! scratch-leased: Frequency keeps a Roaring bitmap serialization and the
//! FSST schemes keep symbol-table training allocations, so they are excluded
//! here (their leased temporaries are covered by the roundtrip proptests).
//! String columns are excluded for the same reason — their stats and
//! dictionary maps key on borrowed `&[u8]` slices that cannot outlive one
//! block, so those maps are rebuilt per block by design (DESIGN.md §11).

use btr_corrupt::alloc::{self, TrackingAllocator};
use btrblocks::{
    compress_block, compress_block_into, BlockRef, Column, ColumnData, Config, Relation,
    SchemeCode, Scratch,
};

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

fn scratch_only_config() -> Config {
    Config {
        block_size: 2_048,
        ..Config::default()
    }
    .with_pool(&[
        SchemeCode::Uncompressed,
        SchemeCode::OneValue,
        SchemeCode::Rle,
        SchemeCode::Dict,
        SchemeCode::FastPfor,
        SchemeCode::FastBp128,
    ])
}

fn sample_relation(rows: usize) -> Relation {
    Relation::new(vec![
        // Ascending ints: FastPfor/FastBp128 territory.
        Column::new("id", ColumnData::Int((0..rows as i32).collect())),
        // Run-heavy ints: RLE with a cascaded child.
        Column::new(
            "runs",
            ColumnData::Int((0..rows).map(|i| (i / 100) as i32 % 7).collect()),
        ),
        // Low-cardinality ints: integer dictionary.
        Column::new(
            "cat",
            ColumnData::Int((0..rows).map(|i| (i * 31) as i32 % 40).collect()),
        ),
        // Constant ints: OneValue.
        Column::new("one", ColumnData::Int(vec![42; rows])),
        // Low-cardinality doubles: double dictionary.
        Column::new(
            "price",
            ColumnData::Double((0..rows).map(|i| (i % 50) as f64 * 0.25).collect()),
        ),
        // Run-heavy doubles: double RLE.
        Column::new(
            "bucket",
            ColumnData::Double((0..rows).map(|i| (i / 200) as f64).collect()),
        ),
    ])
}

/// Every block of every column, in file order.
fn blocks<'a>(rel: &'a Relation, cfg: &Config) -> Vec<BlockRef<'a>> {
    let mut blocks = Vec::new();
    for col in &rel.columns {
        match &col.data {
            ColumnData::Int(v) => blocks.extend(v.chunks(cfg.block_size).map(BlockRef::Int)),
            ColumnData::Double(v) => blocks.extend(v.chunks(cfg.block_size).map(BlockRef::Double)),
            ColumnData::Str(_) => unreachable!("string columns are excluded, see the module docs"),
        }
    }
    blocks
}

/// One full encode of every block through one reused output buffer, the way
/// a steady-state ingest loop recompresses batches.
fn encode_all(
    blocks: &[BlockRef<'_>],
    cfg: &Config,
    scratch: &mut Scratch,
    out: &mut Vec<u8>,
) -> usize {
    let mut bytes = 0;
    for &block in blocks {
        compress_block_into(block, cfg, scratch, out);
        bytes += out.len();
    }
    bytes
}

// One #[test] only: the allocator counters are process-global, and a second
// test running on a sibling thread would count its allocations into the
// measured window.
#[test]
fn warm_encode_allocates_zero_bytes() {
    let cfg = scratch_only_config();
    let rel = sample_relation(10_000);
    let blocks = blocks(&rel, &cfg);

    let mut scratch = Scratch::new();
    let mut out = Vec::new();

    // Cold pass: every lease misses and allocates; the pool and the output
    // buffer fill up.
    let cold_bytes = encode_all(&blocks, &cfg, &mut scratch, &mut out);
    assert!(cold_bytes > 0);
    let cold = scratch.stats();
    assert!(cold.misses > 0, "cold pass must populate the pool");
    assert_eq!(cold.dropped, 0, "budget must not drop encode-sized buffers");

    // Settle pass: pool and buffer already shaped; lets any one-time growth
    // (tier rebalancing, map capacity) finish before the measured window.
    let settle_bytes = encode_all(&blocks, &cfg, &mut scratch, &mut out);
    assert_eq!(settle_bytes, cold_bytes);

    // Warm pass: identical work, zero heap allocations.
    let (warm_bytes, growth) = alloc::measure(|| encode_all(&blocks, &cfg, &mut scratch, &mut out));
    assert_eq!(warm_bytes, cold_bytes);
    assert_eq!(
        growth,
        0,
        "warm encode must not allocate (grew {growth} bytes; stats: {:?})",
        scratch.stats()
    );

    // The reused buffer must hold exactly what a fresh compression produces,
    // and what the relation codec writes: buffer reuse is a performance
    // property, never an output property.
    let compressed = btrblocks::compress(&rel, &cfg).unwrap();
    let written: Vec<(&Vec<u8>, &SchemeCode)> = compressed
        .columns
        .iter()
        .flat_map(|c| c.blocks.iter().zip(&c.schemes))
        .collect();
    assert_eq!(written.len(), blocks.len());
    for (i, (&block, &(file_block, &file_code))) in blocks.iter().zip(&written).enumerate() {
        let code = compress_block_into(block, &cfg, &mut scratch, &mut out);
        assert_eq!(
            compress_block(block, &cfg),
            (out.clone(), code),
            "block {i}"
        );
        assert_eq!((file_block, file_code), (&out, code), "block {i}");
    }

    // A tight budget drops oversized returns instead of hoarding; encode
    // still succeeds, it just stays allocating. This pins the budget
    // behaviour end-to-end rather than only at the unit level.
    let mut scratch = Scratch::with_budget(1 << 10);
    let bytes = encode_all(&blocks, &cfg, &mut scratch, &mut out);
    assert_eq!(bytes, cold_bytes);
    let stats = scratch.stats();
    assert!(stats.held_bytes <= stats.budget_bytes);
    assert!(stats.dropped > 0, "tight budget must drop returns");
}
