//! Zero-allocation warm decode: the central guarantee of `Scratch`.
//!
//! This binary installs btr-corrupt's tracking allocator as the global
//! allocator, decodes a relation's blocks once cold (populating the scratch
//! pool), then decodes the same blocks again warm and asserts the warm pass
//! performs **zero** heap allocations.
//!
//! The scheme pool is restricted to the schemes whose decode path is fully
//! scratch-leased: Frequency and Pseudodecimal each keep one unavoidable
//! per-block allocation (Roaring containers) and are excluded here; their
//! leased temporaries are covered by the dirty-out proptests instead. Fsst
//! and DictFsst are in: a deserialized FSST symbol table lives on the stack
//! and decoding builds no encoder state.

use btr_corrupt::alloc::{self, TrackingAllocator};
use btrblocks::{
    compress, decompress_block_into, Column, ColumnData, Config, Relation, SchemeCode, Scratch,
    StringArena,
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
        SchemeCode::Fsst,
        SchemeCode::DictFsst,
    ])
}

fn str_column(name: &str, strings: &[String]) -> Column {
    let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
    Column::new(name, ColumnData::Str(StringArena::from_strs(&refs)))
}

fn sample_relation(rows: usize) -> Relation {
    let cities: Vec<String> = (0..rows).map(|i| format!("city-{}", (i / 64) % 23)).collect();
    let urls: Vec<String> =
        (0..rows).map(|i| format!("https://example.com/products/category-{}/item-{i}", i % 7)).collect();
    let streets: Vec<String> = (0..rows)
        .map(|i| format!("{} E MAYO BLVD BUILDING {} PHOENIX ARIZONA", 5_000 + i % 300, i % 300))
        .collect();
    Relation::new(vec![
        // Ascending ints: FastPfor/FastBp128 territory.
        Column::new("id", ColumnData::Int((0..rows as i32).collect())),
        // Run-heavy ints: RLE with a cascaded child.
        Column::new("runs", ColumnData::Int((0..rows).map(|i| (i / 100) as i32 % 7).collect())),
        // Low-cardinality doubles: double dictionary.
        Column::new(
            "price",
            ColumnData::Double((0..rows).map(|i| (i % 50) as f64 * 0.25).collect()),
        ),
        // Repetitive strings with long runs: string Dict (+ fused RLE path).
        str_column("city", &cities),
        // Unique strings with shared substrings: FSST.
        str_column("url", &urls),
        // A few hundred long distinct strings: Dict+FSST.
        str_column("street", &streets),
    ])
}

/// One full decode of every block of every column, reusing `out` across
/// blocks the way the scan engine does.
fn decode_all(
    compressed: &btrblocks::CompressedRelation,
    cfg: &Config,
    scratch: &mut Scratch,
) -> usize {
    let mut rows = 0;
    for col in &compressed.columns {
        let mut out = scratch.lease_decoded(col.column_type);
        for block in &col.blocks {
            decompress_block_into(block, col.column_type, cfg, scratch, &mut out)
                .expect("block decodes");
            rows += out.len();
        }
        scratch.recycle(out);
    }
    rows
}

// One #[test] only: the allocator counters are process-global, and a second
// test running on a sibling thread would count its allocations into the
// measured window.
#[test]
fn warm_decode_allocates_zero_bytes() {
    let cfg = scratch_only_config();
    let rel = sample_relation(10_000);
    let compressed = compress(&rel, &cfg).expect("compresses");
    let expected_rows: usize = 6 * 10_000;
    for (column, scheme) in [(3, SchemeCode::Dict), (4, SchemeCode::Fsst), (5, SchemeCode::DictFsst)] {
        let chosen = &compressed.columns[column].schemes;
        assert!(chosen.contains(&scheme), "column {column} never selected {scheme:?}: {chosen:?}");
    }

    let mut scratch = Scratch::new();
    // Cold pass: every lease misses and allocates; the pool fills up.
    let cold_rows = decode_all(&compressed, &cfg, &mut scratch);
    assert_eq!(cold_rows, expected_rows);
    let cold = scratch.stats();
    assert!(cold.misses > 0, "cold pass must populate the pool");
    assert_eq!(cold.dropped, 0, "budget must not drop decode-sized buffers");

    // Warm pass: identical work, zero heap allocations.
    let (warm_rows, growth) = alloc::measure(|| decode_all(&compressed, &cfg, &mut scratch));
    assert_eq!(warm_rows, expected_rows);
    assert_eq!(
        growth, 0,
        "warm decode must not allocate (grew {growth} bytes; stats: {:?})",
        scratch.stats()
    );
    let warm = scratch.stats();
    assert_eq!(warm.misses, cold.misses, "warm pass must be all pool hits");
    assert!(warm.hits > cold.hits);

    // A tight budget drops oversized returns instead of hoarding; decode
    // still succeeds, it just stays allocating. This pins the budget
    // behaviour end-to-end rather than only at the unit level.
    let rel = sample_relation(4_000);
    let compressed = compress(&rel, &cfg).expect("compresses");
    let mut scratch = Scratch::with_budget(1 << 10);
    let rows = decode_all(&compressed, &cfg, &mut scratch);
    assert_eq!(rows, 6 * 4_000);
    let stats = scratch.stats();
    assert!(stats.held_bytes <= stats.budget_bytes);
    assert!(stats.dropped > 0, "tight budget must drop returns");
}
