//! Service-level chaos: the shared campaign ([`btr_scan::chaos`]) with a
//! `ScanService` plugged in as the runner.
//!
//! The campaign owns the fault schedules, the fault-free references and the
//! classification; this file owns only what is the service's: one fresh
//! service per schedule with randomized knobs (cache budget, window,
//! coalescing width, sometimes deliberately tight admission limits), one
//! tenant per scan, and the one error only a service can add —
//! `AdmissionRejected`, attributed when, and only when, the schedule chose
//! tight limits.

use btr_corrupt::Xorshift;
use btr_scan::chaos::{
    drain, run_campaign, run_concurrently, ChaosConfig, Columns, EngineRunner, Runner, Schedule,
};
use btr_scan::{Result, ScanError};
use btr_server::{ScanService, ServiceOptions};

/// Runs each schedule through a fresh [`ScanService`], one tenant per spec.
#[derive(Default)]
struct ServiceRunner {
    /// The schedule in flight configured deliberately tight admission limits.
    tight_admission: bool,
    /// Admission rejections counted by the services themselves.
    service_rejections: u64,
}

impl Runner for ServiceRunner {
    fn run(&mut self, schedule: &Schedule<'_>, rng: &mut Xorshift) -> Vec<Result<Columns>> {
        let tenants = schedule.specs.len();
        self.tight_admission = rng.gen_bool(0.2);
        let service = ScanService::new(ServiceOptions {
            workers: 4,
            cache_bytes: if rng.gen_bool(0.3) { 32 << 10 } else { 16 << 20 },
            batch_rows: 1_024,
            window: 2 + (rng.next_u32() % 6) as usize,
            queue_limit: if self.tight_admission { tenants as u64 } else { 4_096 },
            byte_budget: if self.tight_admission { 256 << 10 } else { 1 << 30 },
            quantum_bytes: 16 << 10,
            coalesce_window: 1 + rng.next_u32() % 4,
            config: schedule.codec.clone(),
        });
        service.register("chaos", schedule.source.clone(), schedule.sidecar.as_ref().clone());
        let results = run_concurrently(schedule.specs.iter().enumerate().map(|(t, spec)| {
            let client = service.client(format!("tenant-{t}"));
            move || client.submit("chaos", spec).and_then(drain)
        }));
        self.service_rejections += service.report().admission_rejections;
        results
    }

    fn explains(&self, err: &ScanError) -> bool {
        self.tight_admission && matches!(err, ScanError::AdmissionRejected { .. })
    }
}

fn assert_clean(report: &btr_scan::ChaosReport, who: &str) {
    assert!(
        report.is_clean(),
        "{who}: panics={} divergent={} unattributed={}",
        report.panics,
        report.divergent,
        report.unattributed
    );
    assert_eq!(
        report.scans_ok + report.scans_failed,
        report.scans_run,
        "{who}: every scan either matched the reference or failed typed"
    );
    assert!(report.scans_ok > 0, "{who}: some scans must survive the faults");
}

#[test]
fn service_campaign_is_clean() {
    let config = ChaosConfig {
        seed: 0x5E21_FEED,
        schedules: 24,
        rows: 2_000,
        ..ChaosConfig::default()
    };
    let mut runner = ServiceRunner::default();
    let report = run_campaign(&config, &mut runner).expect("campaign setup");
    assert_eq!(report.schedules, 24);
    assert_eq!(report.scans_run, 24 * 8, "eight tenants per schedule");
    assert_clean(&report, "service");
    // Every rejection a tenant saw is one the service counted, and nothing
    // else: admission accounting survives the fault storm. (Whether a tight
    // schedule rejects anyone depends on thread timing.)
    assert_eq!(report.admission_rejected, runner.service_rejections);
}

/// ROADMAP 4e: the *same* seeded schedules — same fault plan, same bit-flip,
/// same specs and tolerances — through `ScanEngine` and through
/// `ScanService`. Both are held to the same fault-free reference, so every
/// scan that succeeds on both paths is byte-identical across them, and
/// every failure on either path is typed and attributed.
#[test]
fn engine_and_service_agree_on_the_same_fault_schedules() {
    let config = ChaosConfig {
        seed: 0xD1FF_5EED,
        schedules: 40,
        rows: 2_000,
        ..ChaosConfig::default()
    };
    let engine = run_campaign(&config, &mut EngineRunner).expect("campaign setup");
    let service = run_campaign(&config, &mut ServiceRunner::default()).expect("campaign setup");
    assert_clean(&engine, "engine");
    assert_clean(&service, "service");
    assert_eq!(engine.scans_run, service.scans_run);
    assert_eq!(
        engine.schedule_digest, service.schedule_digest,
        "both runners must have faced the same schedules"
    );
    assert_ne!(engine.schedule_digest, 0);
    assert_eq!(engine.admission_rejected, 0, "the engine has no admission control");
}
