//! String blocks whose strings would materialize past u32 offsets.
//!
//! A 65,545-byte OneValue frame can claim 65,537 copies of a 65,536-byte
//! value: 4,295,032,832 bytes once materialized, one u32 offset too many for
//! a `StringArena`. Such a block (and its Dict twin, one 64 KiB entry under an
//! RLE code child) must be a typed error through every consumer — the block
//! decoder, relation decode and a scan — and must be rejected before anything
//! near its claimed size is allocated.
//!
//! One #[test] only, in its own binary: the tracking allocator's counters are
//! process-global.

use btr_corrupt::alloc::{self, TrackingAllocator};
use btr_scan::{EngineOptions, MemorySource, ScanEngine, ScanError, ScanSpec};
use btrblocks::scheme::compress_with_into;
use btrblocks::writer::WriteLe;
use btrblocks::{
    Column, ColumnData, ColumnType, CompressedColumn, CompressedRelation, Config, Error, Relation,
    SchemeCode, Scratch, Sidecar, StringArena,
};
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

const COUNT: u32 = 65_537;
const LEN: u32 = 65_536;

fn config() -> Config {
    Config {
        block_size: COUNT as usize,
        ..Config::default()
    }
}

/// `[OneValue][COUNT][LEN][LEN bytes]`.
fn one_value_frame() -> Vec<u8> {
    let mut f = vec![SchemeCode::OneValue.as_u8()];
    f.put_u32(COUNT);
    f.put_u32(LEN);
    f.resize(f.len() + LEN as usize, b'x');
    assert_eq!(f.len(), 65_545);
    f
}

/// A one-entry dictionary of `LEN` bytes whose code sequence is one RLE run
/// of `COUNT` zeros (the fused RLE+Dict path).
fn dict_frame() -> Vec<u8> {
    let mut f = vec![SchemeCode::Dict.as_u8()];
    f.put_u32(COUNT);
    f.put_u32(1);
    f.put_u32(LEN);
    f.resize(f.len() + LEN as usize, b'y');
    f.put_u32_slice(&[0, LEN]);
    let codes = vec![0i32; COUNT as usize];
    compress_with_into(SchemeCode::Rle, &codes, 1, &config(), &Scratch::new(), &mut f);
    f
}

/// A one-column relation of `COUNT` short strings, compressed, with its only
/// block swapped for `frame`.
fn relation_with(frame: &[u8], code: SchemeCode) -> (Relation, CompressedRelation) {
    let rel = Relation::new(vec![Column::new(
        "s",
        ColumnData::Str(StringArena::from_strs(&vec!["x"; COUNT as usize])),
    )]);
    let mut compressed = btrblocks::compress(&rel, &config()).expect("compresses");
    assert_eq!(compressed.columns[0].blocks.len(), 1);
    compressed.columns[0] = CompressedColumn {
        blocks: vec![frame.to_vec()],
        schemes: vec![code],
        ..compressed.columns[0].clone()
    };
    (rel, compressed)
}

fn assert_limit(what: &str, err: Error, growth: usize) {
    assert!(matches!(err, Error::LimitExceeded(_)), "{what}: {err:?}");
    assert!(growth < 1 << 20, "{what}: live heap grew {growth} bytes");
}

#[test]
fn strings_past_u32_offsets_are_typed_errors() {
    let cfg = config();
    let engine = ScanEngine::new(EngineOptions {
        config: cfg.clone(),
        ..EngineOptions::default()
    });
    for (code, frame) in [(SchemeCode::OneValue, one_value_frame()), (SchemeCode::Dict, dict_frame())] {
        let (err, growth) =
            alloc::measure(|| btrblocks::decompress_block(&frame, ColumnType::String, &cfg).unwrap_err());
        assert_limit(&format!("{code:?} decompress_block"), err, growth);

        let (rel, compressed) = relation_with(&frame, code);
        let file = compressed.to_bytes();
        let (err, growth) = alloc::measure(|| btrblocks::decompress(&file, &cfg).unwrap_err());
        assert_limit(&format!("{code:?} decompress"), err, growth);

        let sidecar = Sidecar::build(&rel, cfg.block_size);
        let source = Arc::new(MemorySource::new("hostile", Arc::new(compressed)));
        let spec = ScanSpec::project(["s"]);
        let (err, growth) = alloc::measure(|| {
            let scan = engine.scan(source, &sidecar, &spec).expect("plans");
            scan.filter_map(|batch| batch.err()).next().expect("the scan fails")
        });
        match err {
            ScanError::Decode(err) => assert_limit(&format!("{code:?} scan"), err, growth),
            other => panic!("{code:?} scan: {other:?}"),
        }
    }
}
