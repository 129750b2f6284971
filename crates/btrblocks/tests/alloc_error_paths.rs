//! Error paths give every scratch buffer back.
//!
//! This binary installs btr-corrupt's tracking allocator and drives one warm
//! decode arena through damaged copies of every scratch-only scheme's
//! depth-3 blocks: each block cut at every length short of its end, and each
//! dictionary block with one code pointing past its dictionary. Every damaged
//! frame must decode to a typed error, and a second identical pass must
//! allocate nothing and miss the pool nowhere — a temporary that an error
//! path fails to return shows up as a fresh lease on the next pass.
//!
//! One #[test] only, in its own binary: the allocator counters are
//! process-global.

use btr_corrupt::alloc::{self, TrackingAllocator};
use btrblocks::block::compress_block_with;
use btrblocks::scheme;
use btrblocks::writer::Reader;
use btrblocks::{
    decompress_block_into, BlockRef, Column, ColumnData, ColumnType, Config, DecodedColumn,
    Relation, SchemeCode, Scratch, StringArena,
};

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

/// The scratch-only pool of `alloc_regression.rs`: every scheme whose decode
/// path allocates nothing once the arena is warm.
const SCRATCH_ONLY: [SchemeCode; 7] = [
    SchemeCode::Uncompressed,
    SchemeCode::Rle,
    SchemeCode::Dict,
    SchemeCode::FastPfor,
    SchemeCode::FastBp128,
    SchemeCode::Fsst,
    SchemeCode::DictFsst,
];

fn str_column(name: &str, strings: &[String]) -> Column {
    let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
    Column::new(name, ColumnData::Str(StringArena::from_strs(&refs)))
}

/// `alloc_regression.rs`'s relation.
fn sample_relation(rows: usize) -> Relation {
    let cities: Vec<String> = (0..rows).map(|i| format!("city-{}", (i / 64) % 23)).collect();
    let urls: Vec<String> =
        (0..rows).map(|i| format!("https://example.com/products/category-{}/item-{i}", i % 7)).collect();
    let streets: Vec<String> = (0..rows)
        .map(|i| format!("{} E MAYO BLVD BUILDING {} PHOENIX ARIZONA", 5_000 + i % 300, i % 300))
        .collect();
    Relation::new(vec![
        Column::new("id", ColumnData::Int((0..rows as i32).collect())),
        Column::new("runs", ColumnData::Int((0..rows).map(|i| (i / 100) as i32 % 7).collect())),
        Column::new(
            "price",
            ColumnData::Double((0..rows).map(|i| (i % 50) as f64 * 0.25).collect()),
        ),
        str_column("city", &cities),
        str_column("url", &urls),
        str_column("street", &streets),
    ])
}

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

/// Byte offset and entry count of a dictionary block's code child:
/// fixed `[hdr 5][n][n × V]`, string `[hdr 5][n][pool_len][pool][(n + 1) × u32]`,
/// Dict+FSST `[hdr 5][n][table_len][table][comp_len][comp][n × u32]`.
fn code_child(code: SchemeCode, ty: ColumnType, b: &[u8]) -> (usize, usize) {
    let n = u32_at(b, 5);
    match (code, ty) {
        (SchemeCode::Dict, ColumnType::Integer) => (9 + 4 * n, n),
        (SchemeCode::Dict, ColumnType::Double) => (9 + 8 * n, n),
        (SchemeCode::Dict, ColumnType::String) => (13 + u32_at(b, 9) + 4 * (n + 1), n),
        (SchemeCode::DictFsst, ColumnType::String) => {
            let comp_at = 13 + u32_at(b, 9);
            (comp_at + 4 + u32_at(b, comp_at) + 4 * n, n)
        }
        other => panic!("{other:?} has no code child"),
    }
}

/// `block` with one code of its (cascaded) code child pointing one past the
/// end of its dictionary; the child is re-selected at depth 2.
fn flip_one_code(code: SchemeCode, ty: ColumnType, block: &[u8]) -> Vec<u8> {
    let cfg = Config::default();
    let (at, dict_len) = code_child(code, ty, block);
    let mut codes: Vec<i32> = Vec::new();
    scheme::decompress_into(&mut Reader::new(&block[at..]), &cfg, &Scratch::new(), &mut codes)
        .expect("code child decodes");
    let mid = codes.len() / 2;
    codes[mid] = dict_len as i32;
    let mut out = block[..at].to_vec();
    scheme::compress_into(&codes, 2, &cfg, &Scratch::new(), &mut out, Some(SchemeCode::Dict));
    out
}

/// Every damaged frame: each forced scheme's block cut at every length, plus
/// one flipped code per dictionary block.
fn damaged_frames(rel: &Relation, cfg: &Config) -> Vec<(ColumnType, Vec<u8>)> {
    let mut frames = Vec::new();
    for col in &rel.columns {
        let ty = col.data.column_type();
        let data = match &col.data {
            ColumnData::Int(v) => BlockRef::Int(v),
            ColumnData::Double(v) => BlockRef::Double(v),
            ColumnData::Str(a) => BlockRef::Str(a),
        };
        for &code in SchemeCode::applicable(ty).iter().filter(|c| SCRATCH_ONLY.contains(c)) {
            let block = compress_block_with(code, data, cfg);
            assert_eq!(btrblocks::peek_scheme(&block).unwrap(), code);
            frames.extend((0..block.len()).map(|cut| (ty, block[..cut].to_vec())));
            if matches!(code, SchemeCode::Dict | SchemeCode::DictFsst) {
                frames.push((ty, flip_one_code(code, ty, &block)));
            }
        }
    }
    frames
}

/// Decodes every frame into the output buffer of its type; returns how many
/// failed. The error type is the crate's typed `Error`, so a frame that
/// fails without panicking has failed with a typed error.
fn decode_all(
    frames: &[(ColumnType, Vec<u8>)],
    cfg: &Config,
    scratch: &mut Scratch,
    outs: &mut [DecodedColumn; 3],
) -> usize {
    let mut failed = 0;
    for (ty, bytes) in frames {
        let out = &mut outs[*ty as usize];
        failed += usize::from(decompress_block_into(bytes, *ty, cfg, scratch, out).is_err());
    }
    failed
}

#[test]
fn error_paths_return_every_lease() {
    let cfg = Config::default();
    let rel = sample_relation(256);
    let frames = damaged_frames(&rel, &cfg);

    // The output buffers live across both passes, so the pool sees the
    // same leases in the same state each time.
    let mut scratch = Scratch::new();
    let mut outs = [ColumnType::Integer, ColumnType::Double, ColumnType::String]
        .map(|ty| scratch.lease_decoded(ty));
    let failed = decode_all(&frames, &cfg, &mut scratch, &mut outs);
    assert_eq!(failed, frames.len(), "every damaged frame fails");
    let cold = scratch.stats();
    assert!(cold.misses > 0 && cold.dropped == 0, "{cold:?}");

    let (failed, growth) = alloc::measure(|| decode_all(&frames, &cfg, &mut scratch, &mut outs));
    assert_eq!(failed, frames.len());
    let warm = scratch.stats();
    assert_eq!(growth, 0, "a warm pass over damaged frames allocated {growth} bytes ({warm:?})");
    assert_eq!(warm.misses, cold.misses, "an error path kept a lease ({warm:?})");
    assert!(warm.hits > cold.hits);
}
