//! The `scan` phase: one closed-loop caller running four query classes
//! through `ScanEngine` (2 workers) over the uploaded object, plus the
//! traced twin: the benchmark's own single-threaded driver over the same
//! public stages the engine composes (`plan_scan` → `BlockPipeline::process`
//! → `batch::append`/`split_front`), with a span per stage.

use crate::data::{Prepared, Query, HOT};
use crate::oracle::{aggs_equal, evaluate, Digest, Expected};
use crate::stats::{median, median_call_s, sample, time};
use crate::trace::{self, span, ByRequest};
use crate::{Load, Metrics, Tally};
use btr_corrupt::rng::Xorshift;
use btr_expr::{AggState, AggValue};
use btr_scan::batch::{append, empty_like, split_front};
use btr_scan::{
    plan_scan, BlockCache, BlockKey, BlockPipeline, BlockSource, EngineOptions, FetchCtl,
    FetchStats, PipelineFilter, PipelineParams, RecordBatch, ScanEngine, ScanError, ScanReport,
    SourceColumn, SourceHealth,
};
use btrblocks::{DecodeScratch, DecodedColumn};
use std::hint::black_box;
use std::sync::Arc;

/// The engine cache fits every projected column of either workload.
const ENGINE_CACHE_BYTES: usize = 512 << 20;
const BATCH_ROWS: usize = 4096;
/// Distinct seeded key windows the `range` class cycles through.
const RANGE_WINDOWS: usize = 16;

fn options(p: &Prepared, workers: usize) -> EngineOptions {
    EngineOptions {
        workers,
        batch_rows: BATCH_ROWS,
        cache_bytes: ENGINE_CACHE_BYTES,
        config: p.cfg.clone(),
        ..EngineOptions::default()
    }
}

/// A query with its naive answer.
struct Case {
    query: Query,
    expected: Expected,
}

impl Case {
    fn new(p: &Prepared, query: Query) -> Case {
        let expected = evaluate(&p.relation, &query);
        Case { query, expected }
    }

    /// Whether a reply is the naive answer: the aggregates for an aggregate
    /// query, the digest of the batches for a projection.
    fn answered_by(&self, batches: &[RecordBatch], aggs: &[AggValue]) -> bool {
        if self.query.aggs.is_empty() {
            Digest::of_batches(batches) == self.expected.digest
        } else {
            aggs_equal(aggs, &self.expected.aggs)
        }
    }
}

/// One window in each sixteenth of the key domain, at a seeded place inside
/// it that keeps the window clear of the sixteenth's end: row-group borders
/// sit on such ends, so how many windows straddle a border (and read two
/// groups, not one) does not change with the seed.
fn range_cases(p: &Prepared, seed: u64) -> Vec<Case> {
    let mut rng = Xorshift::seed_from_u64(seed ^ 0x5CA9);
    (0..RANGE_WINDOWS)
        .map(|i| {
            let offset = (i as f64 + 0.1 + 0.5 * rng.next_f64()) / RANGE_WINDOWS as f64;
            Case::new(p, p.range(offset))
        })
        .collect()
}

/// Runs `case` through `engine`, timing submit-to-last-batch; the digest
/// comparison runs after the clock stops.
fn engine_scan(
    p: &Prepared,
    engine: &ScanEngine,
    source: &Arc<dyn BlockSource>,
    case: &Case,
) -> (bool, f64, Option<ScanReport>) {
    let spec = case.query.spec();
    let (drained, s) = time(|| -> Result<_, ScanError> {
        let mut scan = engine.scan(source.clone(), &p.sidecar, &spec)?;
        let batches = scan.by_ref().collect::<Result<Vec<RecordBatch>, _>>()?;
        Ok((batches, scan.report()))
    });
    match drained {
        Ok((batches, report)) => (case.answered_by(&batches, &[]), s, Some(report)),
        Err(_) => (false, s, None),
    }
}

fn engine_agg(
    p: &Prepared,
    engine: &ScanEngine,
    source: &Arc<dyn BlockSource>,
    case: &Case,
) -> (bool, f64) {
    let spec = case.query.spec();
    let (report, s) = time(|| engine.aggregate(source.clone(), &p.sidecar, &spec));
    (report.is_ok_and(|r| case.answered_by(&[], &r.values)), s)
}

/// The scan phase's share of an end-to-end round: `range`, `filter` and `agg`
/// queries and `full` scans on a cold engine (fresh engine and cache per
/// query), and `full` scans on one warm engine whose cache holds every block.
pub struct ScanLoad<'a> {
    p: &'a Prepared,
    source: Arc<dyn BlockSource>,
    ranges: Vec<Case>,
    filter: Case,
    agg: Case,
    full: Case,
    warm_engine: ScanEngine,
    range_s: Vec<f64>,
    filter_s: Vec<f64>,
    agg_s: Vec<f64>,
    full_s: Vec<f64>,
    warm_s: Vec<f64>,
}

impl<'a> ScanLoad<'a> {
    pub fn new(p: &'a Prepared, seed: u64, tally: &mut Tally) -> ScanLoad<'a> {
        let load = ScanLoad {
            p,
            source: p.source(HOT),
            ranges: range_cases(p, seed),
            filter: Case::new(p, p.filter()),
            agg: Case::new(p, p.agg()),
            full: Case::new(p, p.full()),
            warm_engine: ScanEngine::new(options(p, 2)),
            range_s: Vec::new(),
            filter_s: Vec::new(),
            agg_s: Vec::new(),
            full_s: Vec::new(),
            warm_s: Vec::new(),
        };
        tally.check(engine_scan(p, &load.warm_engine, &load.source, &load.full).0); // fills the cache
        load
    }

    fn cold(&self, case: &Case, tally: &mut Tally) -> f64 {
        let engine = ScanEngine::new(options(self.p, 2));
        let (ok, s, _) = engine_scan(self.p, &engine, &self.source, case);
        tally.check(ok);
        s
    }
}

impl Load for ScanLoad<'_> {
    fn step(&mut self, tally: &mut Tally) {
        for _ in 0..RANGE_WINDOWS {
            let s = self.cold(&self.ranges[self.range_s.len() % RANGE_WINDOWS], tally);
            self.range_s.push(s);
        }
        for _ in 0..8 {
            let s = self.cold(&self.filter, tally);
            self.filter_s.push(s);
        }
        for _ in 0..6 {
            let engine = ScanEngine::new(options(self.p, 2));
            let (ok, s) = engine_agg(self.p, &engine, &self.source, &self.agg);
            tally.check(ok);
            self.agg_s.push(s);
        }
        for _ in 0..3 {
            let s = self.cold(&self.full, tally);
            self.full_s.push(s);
            let (ok, s, report) = engine_scan(self.p, &self.warm_engine, &self.source, &self.full);
            tally.check(ok && report.is_some_and(|r| r.cache_misses == 0));
            self.warm_s.push(s);
        }
    }

    fn finish(&self, m: &mut Metrics) {
        let rows = self.p.relation.rows() as f64;
        m.put("range_p50_ms", median(&self.range_s) * 1e3);
        m.put("filter_p50_ms", median(&self.filter_s) * 1e3);
        m.put("agg_p50_ms", median(&self.agg_s) * 1e3);
        m.put("full_rows_per_s", rows / median(&self.full_s));
        m.put("warm_full_rows_per_s", rows / median(&self.warm_s));
        for (name, samples) in [
            ("range", &self.range_s),
            ("filter", &self.filter_s),
            ("agg", &self.agg_s),
            ("full", &self.full_s),
            ("warm_full", &self.warm_s),
        ] {
            m.note_samples(name, samples.len());
        }
    }
}

/// Decorator over a [`BlockSource`] that opens a `fetch` span around every
/// call that moves bytes. Everything else forwards untouched.
pub struct TracedSource(pub Arc<dyn BlockSource>);

impl BlockSource for TracedSource {
    fn relation_id(&self) -> Arc<str> {
        self.0.relation_id()
    }
    fn rows(&self) -> u64 {
        self.0.rows()
    }
    fn columns(&self) -> Vec<SourceColumn> {
        self.0.columns()
    }
    fn fetch(&self, column: u32, block: u32) -> btr_scan::Result<Vec<u8>> {
        let _s = span("fetch");
        self.0.fetch(column, block)
    }
    fn fetch_ctl(&self, column: u32, block: u32, ctl: &FetchCtl) -> btr_scan::Result<Vec<u8>> {
        let _s = span("fetch");
        self.0.fetch_ctl(column, block, ctl)
    }
    fn block_len(&self, column: u32, block: u32) -> Option<u64> {
        self.0.block_len(column, block)
    }
    fn fetch_span_ctl(
        &self,
        column: u32,
        block: u32,
        count: u32,
        ctl: &FetchCtl,
    ) -> btr_scan::Result<Vec<Vec<u8>>> {
        let _s = span("fetch");
        self.0.fetch_span_ctl(column, block, count, ctl)
    }
    fn health(&self) -> Option<&SourceHealth> {
        self.0.health()
    }
    fn stats(&self) -> FetchStats {
        self.0.stats()
    }
}

/// The counters of one staged query.
struct Staged {
    blocks_pruned: u64,
    blocks_fast_path: u64,
    blocks_decoded: u64,
    decode_s: f64,
    fetch_bytes: u64,
    fetch_requests: u64,
}

/// The benchmark's single-threaded driver: the stages `ScanEngine::scan` /
/// `ScanEngine::aggregate` compose, called one after another on a cold cache
/// with a span around each.
fn staged_query(
    p: &Prepared,
    source: &Arc<dyn BlockSource>,
    query: &Query,
) -> Result<(Staged, Vec<RecordBatch>, Vec<AggValue>), ScanError> {
    let _root = span("query");
    let spec = query.spec();
    let before = source.stats();
    let plan = {
        let _s = span("plan");
        plan_scan(source.as_ref(), &p.sidecar, &spec)?
    };
    let columns = source.columns();
    let pipeline = BlockPipeline::new(PipelineParams {
        source: source.clone(),
        cache: Arc::new(BlockCache::new(ENGINE_CACHE_BYTES)),
        config: p.cfg.clone(),
        projection: plan.projection.clone(),
        column_types: columns.iter().map(|c| c.column_type).collect(),
        filter: PipelineFilter::from_plan(&plan),
        ctl: FetchCtl::default(),
        base_prefetch: 1,
        gate: None,
    });
    let mut scratch = DecodeScratch::new();
    let mut batches = Vec::new();
    let mut aggs = Vec::new();
    if spec.aggregates.is_empty() {
        let mut buffers: Vec<_> = plan
            .projection
            .iter()
            .map(|&i| empty_like(columns[i].column_type))
            .collect();
        let mut buffered = 0usize;
        let cut = |buffers: &mut Vec<btrblocks::ColumnData>, n: usize| RecordBatch {
            columns: spec
                .projection
                .iter()
                .zip(buffers.iter_mut())
                .map(|(name, buf)| (name.clone(), split_front(buf, n)))
                .collect(),
        };
        for group in &plan.row_groups {
            let block = {
                let _s = span("process");
                pipeline.process(*group, &mut scratch)?
            };
            let _s = span("emit");
            buffered += block.rows_matched as usize;
            for (buf, col) in buffers.iter_mut().zip(&block.columns) {
                append(buf, col)?;
            }
            while buffered >= BATCH_ROWS {
                batches.push(cut(&mut buffers, BATCH_ROWS));
                buffered -= BATCH_ROWS;
            }
        }
        if buffered > 0 {
            let _s = span("emit");
            batches.push(cut(&mut buffers, buffered));
        }
    } else {
        let mut states = Vec::new();
        for (agg, &c) in spec.aggregates.iter().zip(&plan.agg_columns) {
            states.push((
                c,
                AggState::new(agg.kind, columns[c].column_type).map_err(ScanError::Expr)?,
            ));
        }
        let metas: Vec<_> = plan
            .agg_columns
            .iter()
            .map(|&c| p.sidecar.column(&columns[c].name))
            .collect();
        for (i, group) in plan.row_groups.iter().enumerate() {
            let zones: Vec<_> = metas
                .iter()
                .map(|m| m.and_then(|m| m.zones.get(group.block as usize)))
                .collect();
            let _s = span("process");
            pipeline.aggregate_group(
                *group,
                plan.group_fully_selected(i),
                &mut states,
                &zones,
                &mut scratch,
            )?;
        }
        aggs = states.iter().map(|(_, s)| s.value()).collect();
    }
    let (counters, after) = (pipeline.counters(), source.stats());
    let staged = Staged {
        blocks_pruned: plan.blocks_pruned as u64,
        blocks_fast_path: counters.blocks_pushdown_fast_path,
        blocks_decoded: counters.blocks_decoded,
        decode_s: counters.decode_seconds,
        fetch_bytes: after.bytes_fetched - before.bytes_fetched,
        fetch_requests: after.requests - before.requests,
    };
    Ok((staged, batches, aggs))
}

/// One class's staged runs: request numbers, wall seconds, and the first
/// run's counters (class counters repeat exactly; the first query is fixed
/// by the seed).
struct ClassRuns {
    requests: Vec<u64>,
    walls: Vec<f64>,
    decode_s: Vec<f64>,
    first: Option<Staged>,
}

fn staged_class(
    p: &Prepared,
    source: &Arc<dyn BlockSource>,
    cases: &[Case],
    budget: f64,
    tally: &mut Tally,
) -> ClassRuns {
    let mut runs = ClassRuns {
        requests: Vec::new(),
        walls: Vec::new(),
        decode_s: Vec::new(),
        first: None,
    };
    runs.walls = sample(budget, 3, |i| {
        let case = &cases[i % cases.len()];
        runs.requests.push(trace::begin_request());
        let (staged, s) = time(|| staged_query(p, source, &case.query));
        tally.check(
            staged
                .as_ref()
                .is_ok_and(|(_, batches, aggs)| case.answered_by(batches, aggs)),
        );
        if let Ok((staged, ..)) = staged {
            runs.decode_s.push(staged.decode_s);
            runs.first.get_or_insert(staged);
        }
        s
    });
    runs
}

/// Per-layer scan metrics. Returns the summed median per-query seconds of
/// the staged driver with tracing off and on.
pub fn traced(
    p: &Prepared,
    seed: u64,
    seconds: f64,
    m: &mut Metrics,
    tally: &mut Tally,
) -> (f64, f64) {
    let source: Arc<dyn BlockSource> = Arc::new(TracedSource(p.source(HOT)));
    let classes: [(&str, Vec<Case>); 4] = [
        ("range", range_cases(p, seed)),
        ("filter", vec![Case::new(p, p.filter())]),
        ("agg", vec![Case::new(p, p.agg())]),
        ("full", vec![Case::new(p, p.full())]),
    ];
    let (mut off, mut on) = (0.0, 0.0);
    for (class, cases) in &classes {
        trace::set_enabled(false);
        off += median(&staged_class(p, &source, cases, seconds * 0.09, tally).walls);
        trace::set_enabled(true);
        let runs = staged_class(p, &source, cases, seconds * 0.09, tally);
        trace::set_enabled(false);
        on += median(&runs.walls);
        let spans = ByRequest::new(&trace::recent());
        let stage = |name| spans.self_s(&runs.requests, name);
        let (plan, fetch, process, emit) = (
            stage("plan"),
            stage("fetch"),
            stage("process"),
            stage("emit"),
        );
        let wall = spans.total_s(&runs.requests, "query");
        let closure: Vec<f64> = (0..wall.len())
            .map(|i| (plan[i] + fetch[i] + process[i] + emit[i]) / wall[i])
            .collect();
        m.put(
            &format!("btr-scan.stage_sum_over_wall_{class}"),
            median(&closure),
        );
        if !matches!(*class, "range" | "full") {
            continue;
        }
        let Some(first) = &runs.first else { continue };
        for (name, value) in [
            ("plan_us", median(&plan) * 1e6),
            ("fetch_ms", median(&fetch) * 1e3),
            ("process_self_ms", median(&process) * 1e3),
            ("decode_ms", median(&runs.decode_s) * 1e3),
            ("emit_ms", median(&emit) * 1e3),
            ("fetch_bytes", first.fetch_bytes as f64),
            ("fetch_requests", first.fetch_requests as f64),
            ("blocks_pruned", first.blocks_pruned as f64),
            ("blocks_fast_path", first.blocks_fast_path as f64),
            ("blocks_decoded", first.blocks_decoded as f64),
        ] {
            m.put(&format!("btr-scan.{name}_{class}"), value);
        }
    }

    // The engine itself, for the numbers only it can give.
    let plain = p.source(HOT);
    let full = &classes[3].1[0];
    let cold_full = |workers: usize, tally: &mut Tally| {
        median(&sample(seconds * 0.04, 3, |_| {
            let engine = ScanEngine::new(options(p, workers));
            let (ok, s, _) = engine_scan(p, &engine, &plain, full);
            tally.check(ok);
            s
        }))
    };
    let (w1, w2) = (cold_full(1, tally), cold_full(2, tally));
    m.put("btr-scan.workers2_speedup_full", w1 / w2);
    let engine = ScanEngine::new(options(p, 2));
    tally.check(engine_scan(p, &engine, &plain, full).0);
    let (ok, _, report) = engine_scan(p, &engine, &plain, full);
    tally.check(ok);
    let report = report.unwrap_or_default();
    m.put(
        "btr-scan.cache_hit_rate_warm",
        report.cache_hits as f64 / (report.cache_hits + report.cache_misses).max(1) as f64,
    );

    // The block cache and the store on their own.
    let cache = BlockCache::new(64 << 20);
    let relation: Arc<str> = Arc::from("bench");
    let key = |i: u32| BlockKey {
        relation: relation.clone(),
        column: i % 8,
        block: i / 8,
    };
    let value = Arc::new(DecodedColumn::Int(vec![7; 1_000]));
    const ENTRIES: u32 = 4_096;
    let insert = median_call_s(seconds * 0.01, 3, || {
        (0..ENTRIES).for_each(|i| drop(cache.insert(key(i), value.clone())));
    });
    let get = median_call_s(seconds * 0.01, 3, || {
        (0..ENTRIES).for_each(|i| drop(black_box(cache.get(&key(i)))));
    });
    m.put(
        "btr-scan.cache_insert_ns",
        insert * 1e9 / f64::from(ENTRIES),
    );
    m.put("btr-scan.cache_get_ns", get * 1e9 / f64::from(ENTRIES));

    const CHUNK: usize = 1 << 20;
    let chunks = (p.bytes.len() / CHUNK).max(1);
    let len = CHUNK.min(p.bytes.len());
    let get_range = median_call_s(seconds * 0.01, 3, || {
        (0..chunks).for_each(|i| drop(black_box(p.store.get_range(HOT, i * len, len))));
    });
    m.put(
        "btr-s3sim.get_range_gbps",
        (chunks * len) as f64 / 1e9 / get_range,
    );
    (off, on)
}
