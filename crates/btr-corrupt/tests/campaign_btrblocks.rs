//! Mutation campaigns against the btrblocks file format.
//!
//! Every (column type × cascade depth) combination gets a full campaign:
//! thousands of deterministic truncations, bit flips, byte stomps and
//! hostile length words against a valid v2 file. The checksummed format
//! must reject every byte-changing mutation with a typed error before any
//! scheme decoder touches the damaged bytes — so the only acceptable
//! verdicts are Error and (for no-op mutations) a byte-exact round-trip.

use btr_corrupt::alloc::TrackingAllocator;
use btr_corrupt::campaign::{run, CampaignConfig, Verdict};
use btr_corrupt::mutate::MutationBudget;
use btr_corrupt::rng::Xorshift;
use btrblocks::{
    decompress_block_into, decompress_parallel, filter_block, filter_decoded, CmpOp, Column,
    ColumnData, Config, Literal, Relation, Scratch, StringArena,
};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

fn cfg_at_depth(depth: u8) -> Config {
    Config {
        block_size: 512, // small blocks → multi-block files stay a few KB
        max_cascade_depth: depth,
        // The reader declares the writer's block size: any frame claiming
        // more values is corrupt by definition. This is the knob that keeps
        // a stomped count field from becoming a 128 MB allocation.
        max_block_values: 4_096,
        ..Config::default()
    }
}

/// Run-heavy small-domain ints: RLE → Dict → bit-packing cascades.
fn int_relation(rng: &mut Xorshift) -> Relation {
    let mut values = Vec::new();
    while values.len() < 2_000 {
        let v = rng.gen_range(-8i32..8);
        let n = rng.gen_range(1usize..30);
        values.extend(std::iter::repeat_n(v, n));
    }
    Relation::new(vec![Column::new("i", ColumnData::Int(values))])
}

/// Price-like doubles: Pseudodecimal with integer cascades underneath.
/// No NaNs so `Relation == Relation` is a sound round-trip check.
fn double_relation(rng: &mut Xorshift) -> Relation {
    let values: Vec<f64> =
        (0..2_000).map(|_| f64::from(rng.gen_range(0i32..50_000)) / 100.0).collect();
    Relation::new(vec![Column::new("d", ColumnData::Double(values))])
}

/// Low-cardinality strings: Dict/FSST with code-sequence cascades.
fn string_relation(rng: &mut Xorshift) -> Relation {
    const WORDS: [&str; 6] = ["BRONX", "QUEENS", "STATEN ISLAND", "", "a", "Maceió"];
    let strings: Vec<&str> =
        (0..2_000).map(|_| WORDS[rng.gen_range(0usize..6)]).collect();
    Relation::new(vec![Column::new("s", ColumnData::Str(StringArena::from_strs(&strings)))])
}

/// Campaign over one relation serialized as format v2: every mutation must
/// either be rejected with a typed error or leave the decode byte-exact.
fn campaign_v2(label: &str, rel: &Relation, cfg: &Config, seed: u64) -> usize {
    let bytes = btrblocks::compress(rel, cfg).unwrap().to_bytes();
    let campaign = CampaignConfig { seed, ..CampaignConfig::default() };
    let report = run(&bytes, &campaign, |mutated| {
        match btrblocks::decompress(mutated, cfg) {
            Ok(back) if &back == rel => Verdict::Clean,
            Ok(_) => Verdict::Divergent,
            Err(_) => Verdict::Error,
        }
    });
    report.assert_clean(label);
    assert!(report.errors > 0, "campaign '{label}' never saw a rejection");
    report.runs
}

#[test]
fn v2_files_survive_mutation_campaigns_at_every_cascade_depth() {
    let mut rng = Xorshift::new(0xCA5CADE);
    let mut total = 0;
    for depth in 1..=3u8 {
        let cfg = cfg_at_depth(depth);
        total += campaign_v2(
            &format!("int depth {depth}"),
            &int_relation(&mut rng),
            &cfg,
            0x1000 + u64::from(depth),
        );
        total += campaign_v2(
            &format!("double depth {depth}"),
            &double_relation(&mut rng),
            &cfg,
            0x2000 + u64::from(depth),
        );
        total += campaign_v2(
            &format!("string depth {depth}"),
            &string_relation(&mut rng),
            &cfg,
            0x3000 + u64::from(depth),
        );
    }
    // The acceptance bar for the whole suite is ≥10k mutations; this file
    // alone must clear it.
    assert!(total >= 10_000, "only {total} mutations across campaigns");
}

#[test]
fn raw_blocks_never_panic_or_diverge_under_mutation() {
    // In a file every block sits behind a CRC, so the campaigns above stop
    // at the checksum. This one mutates bare block payloads — what a v1 file
    // or a caller holding unverified bytes hands the scheme decoders — and
    // drives both consumers of a block: `decompress_block_into` and the
    // compressed-domain `filter_block`. Mutations may decode to different
    // data (nothing checksums a bare block), so the bar is panic-freedom,
    // bounded allocation, and agreement: the filter rejects exactly the
    // blocks the decoder rejects and otherwise selects the rows the decoded
    // block selects. The numeric predicates are two-leaf ranges, one
    // kernel pass per block.
    let mut rng = Xorshift::new(0xB1);
    let cfg = cfg_at_depth(3);
    let mut total = 0;
    let int_range = vec![(CmpOp::Lt, Literal::Int(0)), (CmpOp::Ge, Literal::Int(-5))];
    let double_range =
        vec![(CmpOp::Ge, Literal::Double(250.0)), (CmpOp::Lt, Literal::Double(400.0))];
    let queens = vec![(CmpOp::Eq, Literal::Str(b"QUEENS".to_vec()))];
    for (label, rel, leaves) in [
        ("int blocks", int_relation(&mut rng), int_range),
        ("double blocks", double_relation(&mut rng), double_range),
        ("string blocks", string_relation(&mut rng), queens),
    ] {
        let column = &btrblocks::compress(&rel, &cfg).unwrap().columns[0];
        let ty = column.column_type;
        let mut scratch = Scratch::new();
        let mut decoded = scratch.lease_decoded(ty);
        for block in &column.blocks {
            let campaign = CampaignConfig { seed: 0x4000, ..CampaignConfig::default() };
            let report = run(block, &campaign, |mutated| {
                let decode = decompress_block_into(mutated, ty, &cfg, &mut scratch, &mut decoded);
                let filtered = filter_block(mutated, ty, &leaves, &cfg);
                match (decode, filtered) {
                    (Err(_), Err(_)) => Verdict::Error,
                    (Ok(()), Ok(rows)) => {
                        let expected = filter_decoded(&decoded, &leaves, &scratch).unwrap();
                        if rows.iter().eq(expected.iter()) {
                            Verdict::Clean
                        } else {
                            Verdict::Divergent
                        }
                    }
                    // One path answered a block the other rejected.
                    _ => Verdict::Divergent,
                }
            });
            report.assert_clean(label);
            total += report.runs;
        }
    }
    // No smaller than the three whole-file v1 campaigns this replaces.
    assert!(total >= 3 * 1_400, "only {total} mutations across block campaigns");
}

/// Two decode outcomes agree bit for bit: the same error, or the same
/// relation with doubles compared as bit patterns (a damaged block may
/// decode to NaNs, which `==` calls different from themselves).
fn same_outcome(a: &btrblocks::Result<Relation>, b: &btrblocks::Result<Relation>) -> bool {
    match (a, b) {
        (Err(x), Err(y)) => x == y,
        (Ok(x), Ok(y)) => {
            x.columns.len() == y.columns.len()
                && x.columns.iter().zip(&y.columns).all(|(p, q)| {
                    p.name == q.name
                        && p.nulls == q.nulls
                        && match (&p.data, &q.data) {
                            (ColumnData::Double(u), ColumnData::Double(v)) => {
                                u.iter().map(|f| f.to_bits()).eq(v.iter().map(|f| f.to_bits()))
                            }
                            (u, v) => u == v,
                        }
                })
        }
        _ => false,
    }
}

#[test]
fn worker_counts_agree_on_damaged_blocks_and_bitmaps() {
    // Through a file every block sits behind a CRC, so no hostile block ever
    // reaches the relation-level loop. Here block payloads and a NULL bitmap
    // are damaged in memory and spliced into a multi-column relation, which
    // is decoded at 1, 2 and 3 workers: every count must return the
    // identical relation or the identical error, and none may panic. A
    // disagreement is reported as `Divergent`.
    let mut rng = Xorshift::new(0xD1FF);
    let cfg = Config { block_size: 128, ..cfg_at_depth(3) };
    let rows = 384;
    let ints: Vec<Option<i32>> =
        (0..rows).map(|_| (!rng.gen_bool(0.2)).then(|| rng.gen_range(-50i32..50))).collect();
    let doubles: Vec<f64> =
        (0..rows).map(|_| f64::from(rng.gen_range(0i32..10_000)) / 100.0).collect();
    let words = ["BRONX", "QUEENS", "", "Maceió"];
    let strings: Vec<&str> = (0..rows).map(|_| words[rng.gen_range(0usize..4)]).collect();
    let rel = Relation::new(vec![
        Column::from_int_options("i", &ints),
        Column::new("d", ColumnData::Double(doubles)),
        Column::new("s", ColumnData::Str(StringArena::from_strs(&strings))),
    ]);
    let compressed = btrblocks::compress(&rel, &cfg).unwrap();
    assert!(!compressed.columns[0].nulls.is_empty());
    // The NULL bitmap (`None`), then every block payload.
    let mut parts = vec![(0, None)];
    for (col, c) in compressed.columns.iter().enumerate() {
        assert_eq!(c.blocks.len(), 3);
        parts.extend((0..c.blocks.len()).map(|blk| (col, Some(blk))));
    }
    let campaign = CampaignConfig {
        seed: 0x6000,
        budget: MutationBudget {
            max_exhaustive: 128,
            random_bytes: 64,
            header_window: 16,
            random_words: 32,
        },
        ..CampaignConfig::default()
    };
    let mut total = 0;
    for (col, part) in parts {
        let original = match part {
            Some(blk) => &compressed.columns[col].blocks[blk],
            None => &compressed.columns[col].nulls,
        };
        let report = run(original, &campaign, |mutated| {
            let mut damaged = compressed.clone();
            *match part {
                Some(blk) => &mut damaged.columns[col].blocks[blk],
                None => &mut damaged.columns[col].nulls,
            } = mutated.to_vec();
            let one = decompress_parallel(&damaged, &cfg, 1);
            if ![2, 3].iter().all(|&t| same_outcome(&one, &decompress_parallel(&damaged, &cfg, t))) {
                return Verdict::Divergent;
            }
            if one.is_ok() {
                Verdict::Clean
            } else {
                Verdict::Error
            }
        });
        report.assert_clean(&format!("column {col} part {part:?}"));
        assert!(report.errors > 0, "column {col} part {part:?} never saw a rejection");
        total += report.runs;
    }
    assert!(total >= 4_000, "only {total} mutations across parts");
}

#[test]
fn mixed_relation_campaign_with_nulls() {
    let mut rng = Xorshift::new(0xAB);
    let ints: Vec<Option<i32>> = (0..1_500)
        .map(|_| (!rng.gen_bool(0.1)).then(|| rng.gen_range(-100i32..100)))
        .collect();
    let rel = Relation::new(vec![
        Column::from_int_options("i", &ints),
        Column::new(
            "d",
            ColumnData::Double((0..1_500).map(|i| f64::from(i % 97) * 0.5).collect()),
        ),
    ]);
    let cfg = cfg_at_depth(3);
    campaign_v2("mixed with nulls", &rel, &cfg, 0x5000);
}
