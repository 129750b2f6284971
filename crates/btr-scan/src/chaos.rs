//! Chaos campaign: randomized fault schedules over concurrent scans.
//!
//! The fault-tolerance layer ([`crate::retry`], the source's hedging /
//! breaker / quarantine, the pipeline's deadline + degradation ladder) is
//! only trustworthy under *composed* failure — latency spikes while a
//! breaker is half-open while another scan's block is permanently corrupt.
//! This module is the one harness that exercises exactly that, for every
//! executor: each **schedule** builds a randomized [`FaultPlan`] (plus,
//! sometimes, a permanently bit-flipped stored block via
//! [`btr_corrupt::Mutation`]) behind one shared [`ObjectStoreSource`], draws
//! one spec (some with deadlines, some with retry budgets) per concurrent
//! scan — with [`ChaosConfig::aggregates`], some of them aggregates — and
//! hands source and specs to a [`Runner`] — [`EngineRunner`] here,
//! a `ScanService` runner in btr-server's tests — that executes them
//! concurrently with its own randomized knobs. Every scan's outcome is then
//! classified:
//!
//! * a successful scan must be **byte-identical** to the fault-free
//!   reference run;
//! * a failed scan must fail with a **typed error attributed to something
//!   the schedule injected** (a deadline it set, a budget it capped, a
//!   breaker it configured, a fault family it enabled) or to a knob the
//!   runner itself turned ([`Runner::explains`]);
//! * nothing may panic, and every schedule must terminate (all simulated
//!   time — nothing here sleeps).
//!
//! Randomness is [`Xorshift`] seeded from [`ChaosConfig::seed`], so a
//! failing campaign replays exactly; a schedule (faults, corruption, specs)
//! depends only on the seed, never on the runner, so two runners given one
//! config face the same schedules ([`ChaosReport::schedule_digest`]).

use crate::batch::{append, RecordBatch};
use crate::engine::{EngineOptions, ScanEngine};
use crate::layout::RelationLayout;
use crate::plan::ScanSpec;
use crate::retry::{BreakerConfig, HedgeConfig};
use crate::source::{BlockSource, MemorySource, ObjectStoreSource};
use crate::{Result, ScanError};
use btr_corrupt::{Mutation, Xorshift};
use btr_expr::{col, lit, Aggregate};
use btr_s3sim::{FaultPlan, ObjectStore};
use btr_sync::RetryPolicy;
use btrblocks::{Column, ColumnData, Config, Relation, Sidecar, StringArena};
use std::sync::Arc;

/// Campaign shape; the default is a quick smoke, tests scale `schedules` up.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed; every schedule derives its own RNG from it.
    pub seed: u64,
    /// Randomized fault schedules to run.
    pub schedules: usize,
    /// Concurrent scans per schedule, all sharing one source (and therefore
    /// one breaker, quarantine set, and in-flight table).
    pub concurrent_scans: usize,
    /// Rows in the generated relation.
    pub rows: usize,
    /// Compression block size (controls block count per column).
    pub block_size: usize,
    /// Decode workers per scan (the engine runner adds 0 or 1 per schedule).
    pub engine_workers: usize,
    /// Also draw aggregate specs (over one more column), answered through
    /// `ScanEngine::aggregate`; only runners that answer aggregates (the
    /// engine's) may set it.
    pub aggregates: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC4A0_5EED,
            schedules: 50,
            concurrent_scans: 8,
            rows: 4_000,
            block_size: 500,
            engine_workers: 1,
            aggregates: false,
        }
    }
}

/// Aggregated campaign result. A healthy run has
/// [`ChaosReport::is_clean`]: zero panics, zero divergent scans, zero
/// unattributed failures.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChaosReport {
    /// Schedules executed.
    pub schedules: u64,
    /// Scans started across all schedules.
    pub scans_run: u64,
    /// Scans that completed byte-identical to the reference.
    pub scans_ok: u64,
    /// Scans that failed (attributed or not).
    pub scans_failed: u64,
    /// Aggregate specs among `scans_run`.
    pub aggregates_run: u64,
    /// Aggregates that matched their fault-free reference bit for bit.
    pub aggregates_ok: u64,
    /// Panics observed (worker panics or scan-thread panics).
    pub panics: u64,
    /// Successful scans whose bytes diverged from the reference.
    pub divergent: u64,
    /// Failures no injected fault explains.
    pub unattributed: u64,
    /// Typed failure tally: admission rejections (only runners with
    /// admission control produce these).
    pub admission_rejected: u64,
    /// Typed failure tally: deadline exceeded.
    pub deadline_exceeded: u64,
    /// Typed failure tally: retry budget exhausted.
    pub budget_exhausted: u64,
    /// Typed failure tally: breaker open fail-fast.
    pub breaker_open: u64,
    /// Typed failure tally: quarantined block.
    pub quarantined: u64,
    /// Typed failure tally: retries exhausted.
    pub fetch_failed: u64,
    /// Hedged GETs issued across the campaign.
    pub hedges_issued: u64,
    /// Hedged GETs that won their race.
    pub hedges_won: u64,
    /// Breaker state transitions across the campaign.
    pub breaker_transitions: u64,
    /// Blocks quarantined across the campaign.
    pub blocks_quarantined: u64,
    /// Fetch retries across the campaign.
    pub retries: u64,
    /// Simulated backoff charged across the campaign, in seconds.
    pub backoff_seconds: f64,
    /// Fingerprint of every schedule drawn (fault-plan seed, corrupted
    /// block, retry cap, each spec's tolerance): equal across runners given
    /// one [`ChaosConfig`].
    pub schedule_digest: u64,
}

impl ChaosReport {
    /// True when the campaign saw no panics, no divergence, and no
    /// unattributed failures — the campaign's pass condition.
    pub fn is_clean(&self) -> bool {
        self.panics == 0 && self.divergent == 0 && self.unattributed == 0
    }

    /// Folds one drawn value into [`ChaosReport::schedule_digest`].
    fn digest(&mut self, word: u64) {
        self.schedule_digest = (self.schedule_digest ^ word)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(17);
    }
}

/// What one schedule injected, for attributing failures.
struct ScheduleCtx {
    /// Any fault family with a nonzero rate (transient, truncate, corrupt,
    /// partial, spikes/timeouts).
    faults_injected: bool,
    /// Bit-corruption is possible: injected corrupt bodies or a permanently
    /// flipped stored block.
    corruption_possible: bool,
    /// The permanently corrupted block, if any.
    corrupted: Option<(u32, u32)>,
    /// A circuit breaker was configured on the source.
    breaker: bool,
}

/// One scan's output with batch boundaries erased.
pub type Columns = Vec<(String, ColumnData)>;

/// What one schedule hands a [`Runner`].
pub struct Schedule<'a> {
    /// The campaign's shape (worker counts, scan count).
    pub config: &'a ChaosConfig,
    /// Codec configuration the stored relation was compressed with.
    pub codec: &'a Config,
    /// Zone maps of the stored relation.
    pub sidecar: &'a Arc<Sidecar>,
    /// The schedule's faulty source, shared by every scan of the schedule
    /// (and therefore one breaker, quarantine set, and in-flight table).
    pub source: Arc<dyn BlockSource>,
    /// One spec per concurrent scan, tolerances already drawn.
    pub specs: Vec<ScanSpec>,
}

/// An executor under test: runs a schedule's scans concurrently.
pub trait Runner {
    /// Runs every spec of `schedule` concurrently (see [`run_concurrently`])
    /// and returns one drained result per spec, in spec order. `rng` is the
    /// runner's own stream for knobs it randomizes per schedule.
    fn run(&mut self, schedule: &Schedule<'_>, rng: &mut Xorshift) -> Vec<Result<Columns>>;

    /// Whether `err` is explained by a knob this runner turned for the
    /// schedule it ran last (e.g. `AdmissionRejected` under deliberately
    /// tight admission limits). Fault-injection errors are attributed by the
    /// campaign itself.
    fn explains(&self, err: &ScanError) -> bool {
        let _ = err;
        false
    }
}

/// Classifies one scan's result into `report`: against the fault-free
/// `reference` when it succeeded, against what the schedule (`spec`, `ctx`)
/// or the runner (`runner_explains`) injected when it failed.
fn classify(
    report: &mut ChaosReport,
    result: &Result<Columns>,
    reference: Option<&Columns>,
    spec: &ScanSpec,
    ctx: &ScheduleCtx,
    runner_explains: bool,
) {
    report.scans_run += 1;
    let aggregate = !spec.aggregates.is_empty();
    report.aggregates_run += u64::from(aggregate);
    let err = match result {
        Ok(columns) if reference == Some(columns) => {
            report.aggregates_ok += u64::from(aggregate);
            return report.scans_ok += 1;
        }
        Ok(_) => return report.divergent += 1,
        Err(err) => err,
    };
    report.scans_failed += 1;
    let attributed = match err {
        ScanError::Worker(_) => return report.panics += 1,
        ScanError::AdmissionRejected { .. } => {
            report.admission_rejected += 1;
            false // only the runner's own knobs can explain one
        }
        ScanError::DeadlineExceeded { .. } => {
            report.deadline_exceeded += 1;
            spec.tolerance.deadline_seconds.is_some()
        }
        ScanError::RetryBudgetExhausted { .. } => {
            report.budget_exhausted += 1;
            spec.tolerance.retry_budget.is_some()
        }
        ScanError::BreakerOpen { .. } => {
            report.breaker_open += 1;
            ctx.breaker && ctx.faults_injected
        }
        ScanError::Quarantined { column, block } => {
            report.quarantined += 1;
            ctx.corrupted == Some((*column, *block)) || ctx.corruption_possible
        }
        ScanError::FetchFailed { .. } => {
            report.fetch_failed += 1;
            ctx.faults_injected || ctx.corrupted.is_some()
        }
        // Planning errors, missing objects, decode failures: the campaign
        // stores a valid object, so none of these are ever expected.
        _ => false,
    };
    if !(attributed || runner_explains) {
        report.unattributed += 1;
    }
}

/// A small three-column relation (sequential ints, derived doubles,
/// low-cardinality strings) whose specs exercise pruning, pushdown, string
/// decode, and multi-column gathers. Public so service-level campaigns
/// (btr-server) stress the same shape of data.
pub fn build_relation(rows: usize) -> Relation {
    // lint: allow(cast) campaign row counts are tiny (thousands)
    let ids: Vec<i32> = (0..rows).map(|i| i as i32).collect();
    let vals: Vec<f64> = ids.iter().map(|&i| f64::from(i) * 0.5 - 3.0).collect();
    let strings: Vec<String> = ids.iter().map(|&i| format!("t{}", i % 13)).collect();
    let refs: Vec<&str> = strings.iter().map(String::as_str).collect();
    Relation::new(vec![
        Column::new("id", ColumnData::Int(ids)),
        Column::new("val", ColumnData::Double(vals)),
        Column::new("tag", ColumnData::Str(StringArena::from_strs(&refs))),
    ])
}

/// The specs every schedule's scans draw from (tolerances are layered on
/// per scan). Public for reuse by service-level campaigns.
pub fn spec_pool(rows: usize) -> Vec<ScanSpec> {
    // lint: allow(cast) campaign row counts are tiny (thousands)
    let rows = rows as i32;
    vec![
        ScanSpec::project(["id", "val", "tag"]),
        ScanSpec::project(["id"]).with_expr(col("id").lt(lit(rows / 3))),
        ScanSpec::project(["val", "tag"]).with_expr(col("id").ge(lit(rows / 2))),
        ScanSpec::project(["tag"]),
    ]
}

/// The column [`ChaosConfig::aggregates`] adds to [`build_relation`]'s:
/// tenths, inexact in binary, so `SUM(amt)` depends on fold order.
fn amounts(rows: usize) -> Column {
    // lint: allow(cast) campaign row counts are tiny (thousands)
    let amounts = (0..rows).map(|i| i as f64 * 0.1 - 7.3).collect();
    Column::new("amt", ColumnData::Double(amounts))
}

/// The aggregate specs [`ChaosConfig::aggregates`] adds to the pool: the
/// zone, compressed and decoded rungs, a double sum whose bits depend on
/// fold order, and a filter that leaves a residual selection.
fn agg_pool(rows: usize) -> Vec<ScanSpec> {
    // lint: allow(cast) campaign row counts are tiny (thousands)
    let rows = rows as i32;
    vec![
        ScanSpec::aggregate([
            Aggregate::sum("amt"),
            Aggregate::sum("val"),
            Aggregate::count("id"),
            Aggregate::min("id"),
            Aggregate::max("val"),
            Aggregate::min("tag"),
        ]),
        ScanSpec::aggregate([Aggregate::sum("amt"), Aggregate::max("id"), Aggregate::max("tag")])
            .with_expr(col("id").ge(lit(rows / 3))),
    ]
}

/// Runs `spec` on `engine`: a scan drained into [`Columns`], or, for a spec
/// with aggregates, `ScanEngine::aggregate` with its values as one string
/// column (doubles printed exactly, so equal output is bit-equal values).
fn run_spec(
    engine: &ScanEngine,
    source: Arc<dyn BlockSource>,
    sidecar: &Sidecar,
    spec: &ScanSpec,
) -> Result<Columns> {
    if spec.aggregates.is_empty() {
        return engine.scan(source, sidecar, spec).and_then(drain);
    }
    let report = engine.aggregate(source, sidecar, spec)?;
    let values: Vec<String> = report.values.iter().map(|v| format!("{v:?}")).collect();
    let values = StringArena::from_strs(&values);
    Ok(vec![("aggregates".to_string(), ColumnData::Str(values))])
}

/// Drains a scan into per-column output (batch boundaries erased), so runs
/// compare byte-for-byte regardless of batching.
pub fn drain(batches: impl Iterator<Item = Result<RecordBatch>>) -> Result<Columns> {
    let mut out: Option<Columns> = None;
    for batch in batches {
        let batch = batch?;
        match &mut out {
            None => out = Some(batch.columns),
            Some(columns) => {
                for ((_, dst), (_, src)) in columns.iter_mut().zip(&batch.columns) {
                    append(dst, src)?;
                }
            }
        }
    }
    Ok(out.unwrap_or_default())
}

/// Runs every job on its own thread and collects the results in job order.
/// A job that panics reads as [`ScanError::Worker`], which the campaign
/// counts as a panic.
pub fn run_concurrently<'a, J>(jobs: impl IntoIterator<Item = J>) -> Vec<Result<Columns>>
where
    J: FnOnce() -> Result<Columns> + Send + 'a,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs.into_iter().map(|job| scope.spawn(job)).collect();
        handles
            .into_iter()
            .map(|handle| {
                handle.join().unwrap_or_else(|payload| {
                    let what = btr_sync::panic_message(payload.as_ref());
                    Err(ScanError::Worker(format!("scan thread: {what}")))
                })
            })
            .collect()
    })
}

fn new_engine(workers: usize, cache_bytes: usize, codec: &Config) -> ScanEngine {
    ScanEngine::new(EngineOptions {
        workers: workers.max(1),
        prefetch: 4,
        batch_rows: 1_024,
        cache_bytes,
        config: codec.clone(),
    })
}

/// The [`ScanEngine`] runner: one engine (one cache) per schedule, one
/// engine scan or aggregate per spec.
pub struct EngineRunner;

impl Runner for EngineRunner {
    fn run(&mut self, schedule: &Schedule<'_>, rng: &mut Xorshift) -> Vec<Result<Columns>> {
        // A small cache budget on some schedules drives the ladder's
        // cache-pressure rung.
        let cache_bytes = if rng.gen_bool(0.3) { 32 << 10 } else { 16 << 20 };
        // A second worker on some schedules lets row groups finish out of
        // block order, which the scan's stream and the aggregate's fold
        // must put back.
        let workers = schedule.config.engine_workers + usize::from(rng.gen_bool(0.5));
        let engine = &new_engine(workers, cache_bytes, schedule.codec);
        run_concurrently(schedule.specs.iter().map(|spec| {
            move || run_spec(engine, schedule.source.clone(), schedule.sidecar, spec)
        }))
    }
}

/// Runs the campaign through `runner`; see the module docs for what each
/// schedule does and asserts. Setup failures (compressing the generated
/// relation, the fault-free reference scans) are the only errors returned —
/// scan failures are classified into the report.
pub fn run_campaign(config: &ChaosConfig, runner: &mut impl Runner) -> Result<ChaosReport> {
    let mut relation = build_relation(config.rows);
    if config.aggregates {
        relation.columns.push(amounts(config.rows));
    }
    let codec = Config {
        block_size: config.block_size.max(1),
        ..Config::default()
    };
    let sidecar = Arc::new(Sidecar::build(&relation, codec.block_size));
    let compressed = Arc::new(btrblocks::compress(&relation, &codec)?);
    let bytes = compressed.to_bytes();
    let layout = RelationLayout::of(&compressed);
    let mut specs = spec_pool(config.rows);
    if config.aggregates {
        specs.extend(agg_pool(config.rows));
    }

    // Fault-free references, one per spec, computed over a memory source.
    let reference_engine = new_engine(config.engine_workers, 16 << 20, &codec);
    let memory: Arc<dyn BlockSource> = Arc::new(MemorySource::new("chaos-ref", compressed));
    let references: Vec<Columns> = specs
        .iter()
        .map(|spec| run_spec(&reference_engine, memory.clone(), &sidecar, spec))
        .collect::<Result<_>>()?;

    let mut report = ChaosReport::default();
    for schedule in 0..config.schedules {
        // lint: allow(cast) schedule index to seed material
        let mut rng =
            Xorshift::new(config.seed ^ (schedule as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));

        let plan = FaultPlan {
            seed: rng.next_u64(),
            transient_rate: rng.next_f64() * 0.35,
            truncate_rate: rng.next_f64() * 0.25,
            corrupt_rate: rng.next_f64() * 0.25,
            partial_rate: rng.next_f64() * 0.25,
            latency_spike_rate: rng.next_f64() * 0.5,
            latency_spike_ms: 100 + rng.next_u32() % 1_900,
            request_timeout_ms: if rng.gen_bool(0.5) {
                400 + rng.next_u32() % 600
            } else {
                0
            },
            base_latency_ms: rng.next_u32() % 40,
            max_faults_per_key: 1 + rng.next_u32() % 5,
        };
        report.digest(plan.seed);

        // Some schedules permanently corrupt one stored block: bit rot the
        // retry layer can never heal, which must end in quarantine — and
        // must poison only scans touching that block.
        let mut corrupted = None;
        let mut stored = bytes.clone();
        if rng.gen_bool(0.25) {
            let column = rng.next_u32() % 3;
            if let Some(col) = layout.columns.get(column as usize) {
                if !col.blocks.is_empty() {
                    // lint: allow(cast) per-column block counts are tiny
                    let block = rng.next_u32() % col.blocks.len() as u32;
                    if let Some(range) = col.blocks.get(block as usize) {
                        // lint: allow(cast) simulated objects are far below 4 GiB
                        let offset = range.offset as usize + range.len as usize / 2;
                        // lint: allow(cast) bit index is reduced mod 8
                        let bit = (rng.next_u32() % 8) as u8;
                        stored = Mutation::BitFlip { offset, bit }.apply(&stored);
                        corrupted = Some((column, block));
                        report.digest(offset as u64 * 8 + u64::from(bit));
                    }
                }
            }
        }

        let store = Arc::new(ObjectStore::new());
        store.put("chaos.btr", stored);
        store.set_fault_plan(Some(plan.clone()));

        let retry = RetryPolicy {
            max_attempts: 2 + rng.next_u32() % 6,
            base_backoff_seconds: 0.02,
            backoff_multiplier: 2.0,
        };
        report.digest(u64::from(retry.max_attempts));
        let mut source = ObjectStoreSource::new(store, "chaos.btr", layout.clone(), retry);
        let use_breaker = rng.gen_bool(0.5);
        if use_breaker {
            source = source.with_breaker(BreakerConfig {
                failure_threshold: 1 + rng.next_u32() % 5,
                open_seconds: 0.5 + rng.next_f64() * 10.0,
            });
        }
        if rng.gen_bool(0.5) {
            source = source.with_hedging(HedgeConfig {
                percentile: 0.9,
                min_seconds: 0.005,
                warmup: 8,
            });
        }
        let source: Arc<dyn BlockSource> = Arc::new(source);

        let ctx = ScheduleCtx {
            faults_injected: plan.transient_rate > 0.0
                || plan.truncate_rate > 0.0
                || plan.corrupt_rate > 0.0
                || plan.partial_rate > 0.0
                || (plan.latency_spike_rate > 0.0 && plan.request_timeout_ms > 0),
            corruption_possible: plan.corrupt_rate > 0.0 || corrupted.is_some(),
            corrupted,
            breaker: use_breaker,
        };

        // Draw every scan's spec + tolerance before the runner's own knobs,
        // so the schedule is the same whichever runner executes it.
        let scans = config.concurrent_scans.max(1);
        let mut spec_idxs = Vec::with_capacity(scans);
        let mut drawn = Vec::with_capacity(scans);
        for s in 0..scans {
            let spec_idx = (schedule + s) % specs.len().max(1);
            let mut spec = specs.get(spec_idx).cloned().unwrap_or_default();
            if rng.gen_bool(0.3) {
                spec = spec.with_deadline(0.5 + rng.next_f64() * 5.0);
            }
            if rng.gen_bool(0.3) {
                spec = spec.with_retry_budget(
                    1.0 + f64::from(rng.next_u32() % 16),
                    rng.next_f64() * 2.0,
                );
            }
            report.digest(spec.tolerance.deadline_seconds.map_or(0, f64::to_bits));
            report.digest(spec.tolerance.retry_budget.map_or(0, |b| b.capacity.to_bits()));
            spec_idxs.push(spec_idx);
            drawn.push(spec);
        }
        let schedule = Schedule {
            config,
            codec: &codec,
            sidecar: &sidecar,
            source,
            specs: drawn,
        };
        let results = runner.run(&schedule, &mut Xorshift::new(rng.next_u64()));

        for ((result, spec), spec_idx) in results.iter().zip(&schedule.specs).zip(spec_idxs) {
            let explained = result.as_ref().is_err_and(|err| runner.explains(err));
            classify(&mut report, result, references.get(spec_idx), spec, &ctx, explained);
        }
        let stats = schedule.source.stats();
        report.hedges_issued += stats.hedges_issued;
        report.hedges_won += stats.hedges_won;
        report.breaker_transitions += stats.breaker_transitions;
        report.blocks_quarantined += stats.blocks_quarantined;
        report.retries += stats.retries;
        report.backoff_seconds += stats.backoff_seconds;
        report.schedules += 1;
    }
    Ok(report)
}
