//! Zero-allocation warm aggregate fold over RLE blocks.
//!
//! `AggState::fold_compressed` reads an RLE block's run values and run
//! lengths into buffers leased from the caller's `Scratch`. This binary
//! installs btr-corrupt's tracking allocator, folds one block per column
//! type cold (filling the pool), then folds more blocks of the same shape
//! and asserts that they allocate nothing.

use btr_corrupt::alloc::{self, TrackingAllocator};
use btr_expr::{AggKind, AggState, AggValue};
use btrblocks::block::compress_block_with;
use btrblocks::{BlockRef, ColumnType, Config, SchemeCode, Scratch};

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

// One #[test] only: the allocator counters are process-global, and a second
// test running on a sibling thread would count its allocations into the
// measured window.
#[test]
fn warm_rle_fold_allocates_zero_bytes() {
    let cfg = Config::default();
    let rows = 4_000;
    let blocks: Vec<(ColumnType, Vec<u8>)> = (0..6)
        .map(|b: i32| {
            let ints: Vec<i32> = (0..rows).map(|i| (i / (50 + b)) * (b + 1)).collect();
            if b % 2 == 0 {
                (ColumnType::Integer, compress_block_with(SchemeCode::Rle, BlockRef::Int(&ints), &cfg))
            } else {
                let doubles: Vec<f64> = ints.iter().map(|&v| f64::from(v) * 0.5).collect();
                let block = BlockRef::Double(&doubles);
                (ColumnType::Double, compress_block_with(SchemeCode::Rle, block, &cfg))
            }
        })
        .collect();
    let scratch = Scratch::new();
    let mut int_sum = AggState::new(AggKind::Sum, ColumnType::Integer).unwrap();
    let mut double_sum = AggState::new(AggKind::Sum, ColumnType::Double).unwrap();
    let mut fold = |(ty, bytes): &(ColumnType, Vec<u8>)| {
        let state = match ty {
            ColumnType::Integer => &mut int_sum,
            _ => &mut double_sum,
        };
        assert!(state.fold_compressed(bytes, *ty, &cfg, &scratch).unwrap(), "RLE folds compressed");
    };

    // Cold: the first block of each type fills the pool.
    blocks[..2].iter().for_each(&mut fold);
    let before = alloc::allocated_bytes();
    blocks[2..].iter().chain(&blocks[..2]).for_each(&mut fold);
    let grew = alloc::allocated_bytes() - before;
    assert_eq!(grew, 0, "warm fold allocated {grew} B; stats: {:?}", scratch.stats());

    let expect: i64 = (0..6)
        .filter(|b| b % 2 == 0)
        .map(|b: i32| (0..rows).map(|i| i64::from((i / (50 + b)) * (b + 1))).sum::<i64>())
        .sum::<i64>()
        + (0..rows).map(|i| i64::from(i / 50)).sum::<i64>();
    assert_eq!(int_sum.value(), AggValue::SumInt(expect));
}
