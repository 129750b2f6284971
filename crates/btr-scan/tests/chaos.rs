//! Fault-tolerance acceptance: the chaos campaign plus targeted storms.
//!
//! The headline test runs 1,000 randomized fault schedules, each with eight
//! concurrent scans and aggregates against one faulty simulated object
//! store, and demands zero panics, zero divergent results, and zero
//! unattributed failures.
//! The targeted tests pin the individual guarantees: quarantine isolation,
//! deadline bounds on the simulated clock, retry-budget typing, and
//! drop-mid-storm cancellation at several worker counts.

use btr_corrupt::Xorshift;
use btr_s3sim::{FaultPlan, ObjectStore, RetryPolicy};
use btr_scan::chaos::{build_relation, drain, run_campaign, EngineRunner};
use btr_scan::{
    BlockSource, ChaosConfig, EngineOptions, ObjectStoreSource, RelationLayout,
    ScanEngine, ScanError, ScanSpec, SimClock,
};
use btrblocks::{Config, Sidecar};
use std::sync::Arc;

const BLOCK_SIZE: usize = 500;

fn config() -> Config {
    Config {
        block_size: BLOCK_SIZE,
        ..Config::default()
    }
}

/// The campaign's three-column relation (`id`, `val`, `tag`) compressed at
/// [`BLOCK_SIZE`]: zone maps, compressed form, and block layout.
fn fixture(rows: usize) -> (Sidecar, Arc<btrblocks::CompressedRelation>, RelationLayout) {
    let rel = build_relation(rows);
    let compressed = Arc::new(btrblocks::compress(&rel, &config()).unwrap());
    let layout = RelationLayout::of(&compressed);
    (Sidecar::build(&rel, BLOCK_SIZE), compressed, layout)
}

/// A store holding `bytes` as `rel.btr` behind `plan`'s faults.
fn store_of(bytes: Vec<u8>, plan: Option<FaultPlan>) -> Arc<ObjectStore> {
    let store = Arc::new(ObjectStore::new());
    store.put("rel.btr", bytes);
    store.set_fault_plan(plan);
    store
}

fn engine(workers: usize) -> Arc<ScanEngine> {
    Arc::new(ScanEngine::new(EngineOptions {
        workers,
        prefetch: 4,
        batch_rows: 1_024,
        cache_bytes: 16 << 20,
        config: config(),
    }))
}

#[test]
fn thousand_schedule_campaign_over_eight_concurrent_scans_is_clean() {
    let config = ChaosConfig {
        seed: 0xBADC_0FFE,
        schedules: 1_000,
        concurrent_scans: 8,
        rows: 2_000,
        block_size: BLOCK_SIZE,
        engine_workers: 1,
        aggregates: true,
    };
    let report = run_campaign(&config, &mut EngineRunner).expect("campaign setup");

    assert_eq!(report.schedules, 1_000);
    assert_eq!(report.scans_run, 8_000);
    assert_eq!(report.panics, 0, "no panic may escape any schedule");
    assert_eq!(
        report.divergent, 0,
        "every successful scan must be byte-identical to the fault-free run"
    );
    assert_eq!(
        report.unattributed, 0,
        "every failure must be typed and explained by an injected fault"
    );
    assert_eq!(
        report.scans_ok + report.scans_failed + report.divergent,
        report.scans_run
    );

    // A thousand randomized schedules must exercise every mechanism.
    assert!(report.retries > 0, "retries never fired");
    assert!(report.backoff_seconds > 0.0, "no backoff was charged");
    assert!(report.hedges_issued > 0, "hedging never fired");
    assert!(report.hedges_won > 0, "no hedge ever won");
    assert!(report.breaker_transitions > 0, "no breaker ever tripped");
    assert!(report.blocks_quarantined > 0, "quarantine never fired");
    assert!(report.deadline_exceeded > 0, "no deadline ever tripped");
    assert!(report.budget_exhausted > 0, "no retry budget ever drained");
    assert!(report.breaker_open > 0, "no scan ever failed fast on a breaker");
    assert!(report.quarantined > 0, "no scan ever hit a quarantined block");
    assert!(report.fetch_failed > 0, "no scan ever exhausted its retries");
    // Aggregates ran under the same storms: some came back bit-identical to
    // the fault-free fold, others failed typed.
    assert!(report.aggregates_ok > 0, "no aggregate survived the faults");
    assert!(report.aggregates_run > report.aggregates_ok, "no aggregate ever failed");
}

#[test]
fn permanently_corrupt_block_poisons_only_scans_that_touch_it() {
    let (sidecar, compressed, layout) = fixture(4_000);

    // Flip one bit inside a stored block of the `val` column (index 1).
    let mut bytes = compressed.to_bytes();
    let range = layout.columns[1].blocks[3];
    bytes[range.offset as usize + range.len as usize / 2] ^= 0x40;

    let source: Arc<dyn BlockSource> = Arc::new(ObjectStoreSource::new(
        store_of(bytes, None),
        "rel.btr",
        layout,
        RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        },
    ));
    let engine = engine(2);

    // Reference for the unaffected projection.
    let memory: Arc<dyn BlockSource> =
        Arc::new(btr_scan::MemorySource::new("rel-ref", compressed.clone()));
    let unaffected = ScanSpec::project(["id", "tag"]);
    let want = engine.scan(memory, &sidecar, &unaffected).and_then(drain).unwrap();

    // Concurrent neighbours: scans avoiding `val` succeed byte-identically
    // while scans over `val` fail with a typed quarantine.
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let engine = engine.clone();
            let source = source.clone();
            let sidecar = sidecar.clone();
            std::thread::spawn(move || {
                let spec = if i % 2 == 0 {
                    ScanSpec::project(["id", "tag"])
                } else {
                    ScanSpec::project(["val"])
                };
                (i, engine.scan(source, &sidecar, &spec).and_then(drain))
            })
        })
        .collect();
    for handle in handles {
        let (i, result) = handle.join().expect("no scan thread may panic");
        if i % 2 == 0 {
            let got = result.expect("scans that skip the corrupt column succeed");
            assert_eq!(got, want, "unaffected scans stay byte-identical");
        } else {
            match result.unwrap_err() {
                ScanError::Quarantined { column, block } => {
                    assert_eq!((column, block), (1, 3), "failure names the poisoned block");
                }
                other => panic!("expected Quarantined, got {other:?}"),
            }
        }
    }
    let stats = source.stats();
    assert_eq!(stats.blocks_quarantined, 1, "exactly one block is poisoned");
}

#[test]
fn deadline_bounded_scan_stops_within_budget_plus_one_step() {
    let (sidecar, compressed, layout) = fixture(4_000);
    let plan = FaultPlan {
        transient_rate: 0.5,
        base_latency_ms: 50,
        max_faults_per_key: 4,
        ..FaultPlan::transient(0.5, 77)
    };
    let store = store_of(compressed.to_bytes(), Some(plan));
    let clock = SimClock::default();
    let policy = RetryPolicy {
        max_attempts: 16,
        base_backoff_seconds: 0.05,
        backoff_multiplier: 1.0,
    };
    let source = Arc::new(
        ObjectStoreSource::new(store, "rel.btr", layout, policy).with_clock(clock.clone()),
    );
    let engine = ScanEngine::new(EngineOptions {
        workers: 1,
        prefetch: 2,
        batch_rows: 1_024,
        cache_bytes: 16 << 20,
        config: config(),
    });
    let spec = ScanSpec::project(["id", "val", "tag"]).with_deadline(0.3);
    let err = engine
        .scan(source, &sidecar, &spec)
        .unwrap()
        .filter_map(Result::err)
        .next()
        .expect("a 300ms budget cannot cover this storm");
    match err {
        ScanError::DeadlineExceeded {
            elapsed_seconds,
            budget_seconds,
        } => {
            assert_eq!(budget_seconds, 0.3);
            // Overshoot is bounded by one in-flight fetch (50ms) plus one
            // backoff step (50ms) on the simulated clock.
            assert!(elapsed_seconds > 0.3);
            assert!(elapsed_seconds <= 0.3 + 0.05 + 0.05 + 1e-9, "{elapsed_seconds}");
            assert!(clock.now_seconds() <= 0.3 + 0.05 + 0.05 + 1e-9);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn retry_budget_exhaustion_is_typed_end_to_end() {
    let (sidecar, compressed, layout) = fixture(4_000);
    let plan = FaultPlan {
        max_faults_per_key: 1_000,
        ..FaultPlan::transient(1.0, 13)
    };
    let store = store_of(compressed.to_bytes(), Some(plan));
    let source = Arc::new(ObjectStoreSource::new(
        store,
        "rel.btr",
        layout,
        RetryPolicy {
            max_attempts: 1_000,
            ..RetryPolicy::default()
        },
    ));
    let engine = engine(1);
    let spec = ScanSpec::project(["id"]).with_retry_budget(3.0, 0.0);
    let err = engine
        .scan(source, &sidecar, &spec)
        .unwrap()
        .filter_map(Result::err)
        .next()
        .expect("an always-faulting store must drain a 3-token budget");
    assert!(
        matches!(err, ScanError::RetryBudgetExhausted { attempts, .. } if attempts == 4),
        "one free attempt plus three budgeted retries, got {err:?}"
    );
}

/// Hand-rolled property test (no proptest crate in this workspace):
/// dropping a `Scan` mid-fault-storm must always cancel and join its
/// workers without deadlocking, across worker counts and random stop
/// points. The test completing *is* the assertion — a stuck join would
/// hang the harness.
#[test]
fn dropping_scans_mid_storm_always_cancels_cleanly() {
    let (sidecar, compressed, layout) = fixture(10_000);
    let bytes = compressed.to_bytes();

    let mut rng = Xorshift::new(0xD20B);
    for workers in [1usize, 2, 8] {
        for case in 0..12u32 {
            let plan = FaultPlan {
                transient_rate: 0.3,
                truncate_rate: 0.2,
                corrupt_rate: 0.2,
                partial_rate: 0.2,
                latency_spike_rate: 0.3,
                request_timeout_ms: 700,
                base_latency_ms: 20,
                max_faults_per_key: 4,
                ..FaultPlan::transient(0.0, rng.next_u64())
            };
            let source = Arc::new(ObjectStoreSource::new(
                store_of(bytes.clone(), Some(plan)),
                "rel.btr",
                layout.clone(),
                RetryPolicy {
                    max_attempts: 2 + case % 4,
                    ..RetryPolicy::default()
                },
            ));
            let engine = ScanEngine::new(EngineOptions {
                workers,
                prefetch: 1 + (case as usize) % 6,
                batch_rows: 512,
                cache_bytes: 1 << 20,
                config: config(),
            });
            let mut spec = ScanSpec::project(["id", "val", "tag"]);
            if rng.gen_bool(0.4) {
                spec = spec.with_deadline(0.2 + rng.next_f64() * 2.0);
            }
            let mut scan = engine.scan(source, &sidecar, &spec).unwrap();
            // Consume a random prefix — possibly nothing, possibly spanning
            // errors — then drop with workers still in flight.
            let stop_after = rng.next_u32() % 6;
            for _ in 0..stop_after {
                if scan.next().is_none() {
                    break;
                }
            }
            drop(scan); // must cancel + join, storm or not
        }
    }
}
