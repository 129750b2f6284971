//! Integration tests for the scan service: cross-scan GET dedup, ranged-GET
//! coalescing, DRR fairness, typed admission control, and per-relation
//! quarantine isolation.

use btr_s3sim::{ObjectStore, RetryPolicy};
use btr_scan::chaos::{build_relation, drain, Columns};
use btr_scan::engine::{EngineOptions, ScanEngine};
use btr_scan::layout::RelationLayout;
use btr_scan::{col, lit, BlockSource, MemorySource, ObjectStoreSource};
use btr_server::{ScanError, ScanService, ScanSpec, ServiceOptions};
use btrblocks::{CompressedRelation, Config, Sidecar};
use std::sync::Arc;

struct Fixture {
    codec: Config,
    sidecar: Sidecar,
    compressed: Arc<CompressedRelation>,
    bytes: Vec<u8>,
    layout: RelationLayout,
}

fn fixture(rows: usize, block_size: usize) -> Fixture {
    let relation = build_relation(rows);
    let codec = Config {
        block_size,
        ..Config::default()
    };
    let sidecar = Sidecar::build(&relation, codec.block_size);
    let compressed = Arc::new(btrblocks::compress(&relation, &codec).expect("compress"));
    let bytes = compressed.to_bytes();
    let layout = RelationLayout::of(&compressed);
    Fixture {
        codec,
        sidecar,
        compressed,
        bytes,
        layout,
    }
}

/// Fault-free reference for `spec`, via a plain engine over memory.
fn reference(fx: &Fixture, spec: &ScanSpec) -> Columns {
    let engine = ScanEngine::new(EngineOptions {
        workers: 2,
        prefetch: 4,
        batch_rows: 1_024,
        cache_bytes: 16 << 20,
        config: fx.codec.clone(),
    });
    let source: Arc<dyn BlockSource> =
        Arc::new(MemorySource::new("reference", fx.compressed.clone()));
    let scan = engine.scan(source, &fx.sidecar, spec).expect("reference scan");
    drain(scan).expect("reference drain")
}

fn total_blocks(layout: &RelationLayout) -> u64 {
    layout.columns.iter().map(|c| c.blocks.len() as u64).sum()
}

#[test]
fn concurrent_scans_issue_each_block_get_at_most_once() {
    let fx = fixture(4_000, 500);
    let store = Arc::new(ObjectStore::new());
    store.put("rel.btr", fx.bytes.clone());
    let source = ObjectStoreSource::new(
        store.clone(),
        "rel.btr",
        fx.layout.clone(),
        RetryPolicy::default(),
    );
    let service = ScanService::new(ServiceOptions {
        workers: 4,
        window: 8,
        batch_rows: 1_024,
        coalesce_window: 1, // count raw per-block GETs, no span fusion
        config: fx.codec.clone(),
        ..ServiceOptions::default()
    });
    service.register("rel", Arc::new(source), fx.sidecar.clone());

    let spec = ScanSpec::project(["id", "val", "tag"]);
    let want = reference(&fx, &spec);

    // Submit both scans before draining either, then drain concurrently, so
    // their block requests genuinely overlap.
    let mut a = service.client("a").submit("rel", &spec).expect("submit a");
    let mut b = service.client("b").submit("rel", &spec).expect("submit b");
    let drain_b = std::thread::spawn(move || drain(&mut b));
    let got_a = drain(&mut a).expect("drain a");
    let got_b = drain_b.join().expect("no panic").expect("drain b");
    assert_eq!(got_a, want);
    assert_eq!(got_b, want);

    // The shared cache plus the decode gate bound the service to one GET per
    // stored block no matter how many scans want it.
    let blocks = total_blocks(&fx.layout);
    let totals = store.counters();
    assert_eq!(
        totals.ranged_get_requests, blocks,
        "two concurrent scans must issue each block's GET at most once"
    );
    assert_eq!(totals.get_requests, 0, "block fetches are always ranged");

    // Every GET is attributed to exactly one of the two tenants.
    let ta = store.tenant_counters("a");
    let tb = store.tenant_counters("b");
    assert_eq!(
        ta.ranged_get_requests + tb.ranged_get_requests,
        totals.ranged_get_requests
    );
    assert_eq!(ta.bytes_served + tb.bytes_served, totals.bytes_served);
    // A tenant that rode entirely on the other's fetches (cache hits + gate
    // waits) never reaches the store at all; whoever did must be one of ours.
    for tenant in store.tenants() {
        assert!(tenant == "a" || tenant == "b", "unexpected tenant {tenant}");
    }

    let report = service.report();
    assert_eq!(report.admission_rejections, 0);
    let rows: u64 = report.tenants.iter().map(|t| t.rows_emitted).sum();
    assert_eq!(rows, 8_000);

    // The accounting behind that economics: two scans asked for every block
    // once each; one ask decoded it, the other was served by the shared cache
    // or by joining the in-flight decode (cross-scan single-flight) — never
    // by a second decode.
    let decoded: u64 = report.tenants.iter().map(|t| t.blocks_decoded).sum();
    assert_eq!(decoded, blocks);
    assert_eq!(report.cache.hits + report.dedup_hits, blocks);
    let tenant_dedup: u64 = report.tenants.iter().map(|t| t.dedup_hits).sum();
    assert_eq!(tenant_dedup, report.dedup_hits);
}

#[test]
fn interest_driven_coalescing_fuses_adjacent_blocks() {
    let fx = fixture(4_000, 500); // 8 blocks per column, 3 columns
    let store = Arc::new(ObjectStore::new());
    store.put("rel.btr", fx.bytes.clone());
    let source = ObjectStoreSource::new(
        store.clone(),
        "rel.btr",
        fx.layout.clone(),
        RetryPolicy::default(),
    );
    // One worker and a full look-ahead window make the schedule (and so the
    // span shapes) deterministic: every queued task has registered interest
    // before the first fetch happens.
    let service = ScanService::new(ServiceOptions {
        workers: 1,
        window: 8,
        batch_rows: 1_024,
        coalesce_window: 4,
        config: fx.codec.clone(),
        ..ServiceOptions::default()
    });
    service.register("rel", Arc::new(source), fx.sidecar.clone());

    let spec = ScanSpec::project(["id", "val", "tag"]);
    let want = reference(&fx, &spec);
    let mut handle = service.client("t").submit("rel", &spec).expect("submit");
    assert_eq!(drain(&mut handle).expect("drain"), want);

    // 8 blocks per column fuse into two 4-block spans: 6 ranged GETs carry
    // all 24 blocks, and the 18 non-lead blocks are served from staging.
    let blocks = total_blocks(&fx.layout);
    let totals = store.counters();
    assert_eq!(totals.ranged_get_requests, 6);
    assert!(totals.ranged_get_requests < blocks);
    let report = service.report();
    assert_eq!(report.spans_issued, 6);
    assert_eq!(report.coalesced_blocks, 18);
    assert_eq!(report.staged_hits, 18);
}

#[test]
fn point_query_is_not_starved_behind_a_table_scan() {
    let fx = fixture(50_000, 500); // 100 row groups for the heavy scan
    let source: Arc<dyn BlockSource> = Arc::new(MemorySource::new("rel", fx.compressed.clone()));
    // One worker, a deep heavy backlog, and a small quantum: fairness must
    // come from DRR, not from spare capacity.
    let service = ScanService::new(ServiceOptions {
        workers: 1,
        window: 64,
        batch_rows: 4_096,
        quantum_bytes: 1 << 10,
        queue_limit: 4_096,
        byte_budget: 1 << 30,
        config: fx.codec.clone(),
        ..ServiceOptions::default()
    });
    service.register("rel", source, fx.sidecar.clone());

    let heavy_spec = ScanSpec::project(["id", "val", "tag"]);
    let mut heavy = service
        .client("heavy")
        .submit("rel", &heavy_spec)
        .expect("submit heavy");
    let heavy_drain = std::thread::spawn(move || drain(&mut heavy));

    // A point query from a second tenant, pruned to one row group by the
    // zone maps, submitted while the heavy backlog is queued.
    let point_spec = ScanSpec::project(["id"]).with_expr(col("id").lt(lit(500)));
    let mut point = service
        .client("point")
        .submit("rel", &point_spec)
        .expect("submit point");
    let got = drain(&mut point).expect("drain point");
    assert_eq!(got, reference(&fx, &point_spec));

    let heavy_rows: usize = heavy_drain
        .join()
        .expect("no panic")
        .expect("drain heavy")
        .first()
        .map(|(_, col)| col.len())
        .unwrap_or(0);
    assert_eq!(heavy_rows, 50_000);

    let report = service.report();
    let point_report = report
        .tenants
        .iter()
        .find(|t| t.tenant == "point")
        .expect("point tenant");
    // The point task's queue wait is bounded by a handful of dispatches, not
    // by the depth of the heavy tenant's backlog.
    assert!(
        point_report.queue_wait_logical_p95 <= 8.0,
        "point query p95 logical wait {} exceeds the DRR bound",
        point_report.queue_wait_logical_p95
    );
    assert_eq!(point_report.rows_emitted, 500);
}

#[test]
fn task_queue_rejection_is_typed_and_recovers_after_drain() {
    let fx = fixture(4_000, 500); // 8 row groups
    let source: Arc<dyn BlockSource> = Arc::new(MemorySource::new("rel", fx.compressed.clone()));
    let service = ScanService::new(ServiceOptions {
        workers: 1,
        window: 8,
        batch_rows: 1_024,
        queue_limit: 12,
        byte_budget: 1 << 30,
        config: fx.codec.clone(),
        ..ServiceOptions::default()
    });
    service.register("rel", source, fx.sidecar.clone());

    let client = service.client("t");
    let spec = ScanSpec::project(["id", "val", "tag"]);
    let want = reference(&fx, &spec);

    // The first scan's 8-task window is admitted and stays outstanding until
    // its consumer drains; a second initial window of 8 would overflow the
    // 12-task limit deterministically.
    let mut first = client.submit("rel", &spec).expect("first submit");
    match client.submit("rel", &spec) {
        Err(ScanError::AdmissionRejected {
            resource,
            queued,
            limit,
        }) => {
            assert_eq!(resource, "task queue");
            assert_eq!(queued, 8);
            assert_eq!(limit, 12);
        }
        Ok(_) => panic!("second submit must be rejected"),
        Err(other) => panic!("expected AdmissionRejected, got {other:?}"),
    }

    // Draining releases the budget; resubmission then succeeds.
    assert_eq!(drain(&mut first).expect("drain first"), want);
    let mut retried = client.submit("rel", &spec).expect("resubmit");
    assert_eq!(drain(&mut retried).expect("drain retried"), want);

    let report = service.report();
    assert_eq!(report.admission_rejections, 1);
    assert_eq!(report.outstanding_tasks, 0);
    assert_eq!(report.outstanding_bytes, 0);
    let tenant = &report.tenants[0];
    assert_eq!(tenant.scans_admitted, 2);
    assert_eq!(tenant.scans_rejected, 1);
    assert_eq!(tenant.scans_completed, 2);
}

#[test]
fn byte_budget_rejection_names_the_resource() {
    let fx = fixture(4_000, 500);
    let source: Arc<dyn BlockSource> = Arc::new(MemorySource::new("rel", fx.compressed.clone()));
    let service = ScanService::new(ServiceOptions {
        workers: 1,
        window: 8,
        batch_rows: 1_024,
        queue_limit: 4_096,
        byte_budget: 1, // any concurrent second scan overflows
        config: fx.codec.clone(),
        ..ServiceOptions::default()
    });
    service.register("rel", source, fx.sidecar.clone());

    let client = service.client("t");
    let spec = ScanSpec::project(["id", "val", "tag"]);

    // An idle service admits even a scan larger than the budget...
    let mut first = client.submit("rel", &spec).expect("idle service admits");
    // ...but a second scan on top of outstanding bytes is rejected.
    match client.submit("rel", &spec) {
        Err(ScanError::AdmissionRejected {
            resource,
            queued,
            limit,
        }) => {
            assert_eq!(resource, "byte budget");
            assert!(queued > 0, "outstanding bytes must be reported");
            assert_eq!(limit, 1);
        }
        Ok(_) => panic!("second submit must be rejected"),
        Err(other) => panic!("expected AdmissionRejected, got {other:?}"),
    }

    assert_eq!(drain(&mut first).expect("drain first"), reference(&fx, &spec));
    drop(client.submit("rel", &spec).expect("resubmit after drain"));
}

#[test]
fn quarantine_is_isolated_to_the_corrupt_relation() {
    let fx = fixture(4_000, 500);
    let store = Arc::new(ObjectStore::new());
    store.put("clean.btr", fx.bytes.clone());

    // Permanently flip one bit in the middle of column 0, block 3 of the
    // dirty copy; the framing CRC catches it on every fetch.
    let range = fx.layout.columns[0].blocks[3];
    let mut dirty = fx.bytes.clone();
    dirty[range.offset as usize + range.len as usize / 2] ^= 1 << 3;
    store.put("dirty.btr", dirty);

    let retry = RetryPolicy {
        max_attempts: 2,
        base_backoff_seconds: 0.001,
        backoff_multiplier: 2.0,
    };
    let service = ScanService::new(ServiceOptions {
        workers: 4,
        window: 8,
        batch_rows: 1_024,
        coalesce_window: 2,
        config: fx.codec.clone(),
        ..ServiceOptions::default()
    });
    service.register(
        "clean",
        Arc::new(ObjectStoreSource::new(
            store.clone(),
            "clean.btr",
            fx.layout.clone(),
            retry.clone(),
        )),
        fx.sidecar.clone(),
    );
    service.register(
        "dirty",
        Arc::new(ObjectStoreSource::new(
            store.clone(),
            "dirty.btr",
            fx.layout.clone(),
            retry,
        )),
        fx.sidecar.clone(),
    );

    let spec = ScanSpec::project(["id", "val", "tag"]);
    let want = reference(&fx, &spec);

    // Both tenants scan concurrently; only the one touching the corrupt
    // relation may fail, and with a typed, block-accurate error.
    let mut clean = service
        .client("clean-tenant")
        .submit("clean", &spec)
        .expect("submit clean");
    let clean_drain = std::thread::spawn(move || drain(&mut clean));
    let mut dirty_handle = service
        .client("dirty-tenant")
        .submit("dirty", &spec)
        .expect("submit dirty");
    let dirty_err = drain(&mut dirty_handle).expect_err("corrupt block must fail the scan");
    match dirty_err {
        ScanError::Quarantined { column, block } => {
            assert_eq!((column, block), (0, 3));
        }
        other => panic!("expected Quarantined, got {other:?}"),
    }
    assert_eq!(clean_drain.join().expect("no panic").expect("drain clean"), want);

    // The quarantine is sticky: a resubmission fails fast on the same block
    // without another round of retries against the store.
    let before = store.counters().ranged_get_requests;
    let mut again = service
        .client("dirty-tenant")
        .submit("dirty", &spec)
        .expect("resubmit dirty");
    match drain(&mut again).expect_err("quarantined block stays failed") {
        ScanError::Quarantined { column, block } => assert_eq!((column, block), (0, 3)),
        other => panic!("expected Quarantined, got {other:?}"),
    }
    let extra = store.counters().ranged_get_requests - before;
    assert!(
        extra < total_blocks(&fx.layout),
        "resubmission must not refetch the whole relation's worth of retries"
    );

    let report = service.report();
    let by_name = |name: &str| {
        report
            .tenants
            .iter()
            .find(|t| t.tenant == name)
            .cloned()
            .unwrap_or_default()
    };
    assert_eq!(by_name("clean-tenant").scans_completed, 1);
    assert_eq!(by_name("clean-tenant").scans_failed, 0);
    assert_eq!(by_name("dirty-tenant").scans_failed, 2);
}

#[test]
fn dropping_a_handle_cancels_and_returns_its_budget() {
    let fx = fixture(4_000, 500);
    let source: Arc<dyn BlockSource> = Arc::new(MemorySource::new("rel", fx.compressed.clone()));
    let service = ScanService::new(ServiceOptions {
        workers: 2,
        window: 4,
        batch_rows: 1_024,
        config: fx.codec.clone(),
        ..ServiceOptions::default()
    });
    service.register("rel", source, fx.sidecar.clone());

    let mut handle = service
        .client("t")
        .submit("rel", &ScanSpec::project(["id", "val", "tag"]))
        .expect("submit");
    let first = handle.next().expect("first batch").expect("batch ok");
    assert!(first.rows() > 0);
    drop(handle);

    // finish() runs synchronously on drop: queued tasks purged, admission
    // accounting returned, the scan counted as cancelled.
    let report = service.report();
    assert_eq!(report.outstanding_tasks, 0);
    assert_eq!(report.outstanding_bytes, 0);
    assert_eq!(report.tenants[0].scans_cancelled, 1);
}

#[test]
fn an_open_breaker_shrinks_a_service_scans_window() {
    use btr_scan::BreakerConfig;

    let fx = fixture(8_000, 500); // 16 row groups
    let store = Arc::new(ObjectStore::new());
    store.put("rel.btr", fx.bytes.clone());
    let source = Arc::new(
        ObjectStoreSource::new(store, "rel.btr", fx.layout.clone(), RetryPolicy::default())
            .with_breaker(BreakerConfig {
                failure_threshold: 1,
                open_seconds: 1e9,
            }),
    );
    let service = ScanService::new(ServiceOptions {
        workers: 1,
        window: 4,
        batch_rows: 500, // one batch per row group
        config: fx.codec.clone(),
        ..ServiceOptions::default()
    });
    service.register("rel", source.clone(), fx.sidecar.clone());
    let client = service.client("t");
    let spec = ScanSpec::project(["id"]);

    // A first scan fills the shared cache, so the second keeps going when
    // the breaker refuses every fetch.
    let want = drain(client.submit("rel", &spec).expect("warm-up submit")).expect("warm-up");
    let mut handle = client.submit("rel", &spec).expect("submit");
    let mut batches = vec![handle.next().expect("first batch")];
    assert_eq!(service.report().outstanding_tasks, 4, "the healthy window");

    let health = source.health().expect("object-store sources carry health");
    health.breaker().expect("configured above").record(health.clock(), false);

    // Rung 3: the window is 1. Nothing is enqueued past it, so what the
    // healthy window had put in flight only drains.
    for k in 1.. {
        let Some(batch) = handle.next() else { break };
        batches.push(batch);
        let outstanding = service.report().outstanding_tasks;
        assert!(outstanding <= 4u64.saturating_sub(k).max(1), "batch {k}: {outstanding} outstanding");
    }
    assert_eq!(drain(batches.into_iter()).expect("served from the cache"), want);
    let report = handle.report();
    assert!(report.degradation_steps > 0, "{report:?}");
    assert_eq!((report.rows_matched, report.blocks_fetched), (8_000, 0));
}

/// An engine scan and a service scan are one type: whatever one can do
/// (`report`, `cancel`), the other can.
#[test]
fn scan_and_scan_handle_are_the_same_type() {
    let _: fn(btr_scan::Scan) -> btr_server::ScanHandle = |s| s;
}

/// A stored block whose value count disagrees with its row group (block 1
/// of `id` swapped for a CRC-valid block of 10 or 1,010 values) fails every
/// scan of that relation with a typed error, and the service serves a
/// valid relation afterwards.
#[test]
fn a_block_with_the_wrong_row_count_is_a_typed_error_and_the_service_serves_on() {
    let good = fixture(3_000, 1_000);
    let store = Arc::new(ObjectStore::new());
    store.put("good.btr", good.bytes.clone());
    let service = ScanService::new(ServiceOptions {
        workers: 2,
        window: 2,
        batch_rows: 700,
        config: good.codec.clone(),
        ..ServiceOptions::default()
    });
    let source = ObjectStoreSource::new(
        store.clone(),
        "good.btr",
        good.layout.clone(),
        RetryPolicy::default(),
    );
    service.register("good", Arc::new(source), good.sidecar.clone());
    let specs = [
        ScanSpec::project(["id", "val", "tag"]),
        ScanSpec::project(["val"]).with_expr(col("id").lt(lit(1_500))),
    ];
    let client = service.client("t");
    for values in [10, 1_010] {
        let mut compressed = (*good.compressed).clone();
        let ids: Vec<i32> = (1_000..1_000 + values).collect();
        let (block, code) = btrblocks::compress_block(btrblocks::BlockRef::Int(&ids), &good.codec);
        compressed.columns[0].blocks[1] = block;
        compressed.columns[0].schemes[1] = code;
        let key = format!("bad{values}.btr");
        store.put(&key, compressed.to_bytes());
        let layout = RelationLayout::of(&compressed);
        let source = ObjectStoreSource::new(store.clone(), &key, layout, RetryPolicy::default());
        service.register(key.clone(), Arc::new(source), good.sidecar.clone());
        let want = ScanError::BlockRowCount {
            column: "id".into(),
            block: 1,
            expected: 1_000,
            got: values as usize,
        };
        for (i, spec) in specs.iter().enumerate() {
            let got = drain(client.submit(&key, spec).expect("submit")).map(|c| c.len());
            assert_eq!(got, Err(want.clone()), "{values} values, spec {i}");
        }
    }
    for spec in &specs {
        let got = drain(client.submit("good", spec).expect("submit")).expect("valid scan");
        assert_eq!(got, reference(&good, spec));
    }
}
