//! One run of one workload: set-up, then either the untraced end-to-end pass
//! or the traced per-layer pass, then the result.

use crate::data::{rows_of, setup, Prepared};
use crate::manifest::{per_layer, END_TO_END};
use crate::phases::{codec, ladder, scan, service};
use crate::stats::{median, time};
use crate::{env, trace, Load, Metrics, Tally};
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rounds of the end-to-end pass a run makes however short its `--seconds`.
const MIN_ROUNDS: usize = 2;

/// What the command line asks of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `cargo test` size: tiny relations, every loop at its minimum count.
    pub smoke: bool,
}

/// A finished run.
pub struct RunResult {
    pub tally: Tally,
    /// `(name, value, unit)` in manifest order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Sample count behind each timed loop of the end-to-end pass.
    pub samples: Vec<(&'static str, usize)>,
    pub wall_s: f64,
}

impl RunResult {
    /// No operation failed and every metric is a number.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// The driver's result line.
    pub fn line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Where traces and result files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn end_to_end(args: &RunArgs, m: &mut Metrics, tally: &mut Tally) {
    let mut setups = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first, or peak memory would count two.
        drop(prepared.take());
        let (p, s) = time(|| setup(args.workload, args.seed, args.smoke));
        setups.push(s);
        prepared = Some(p);
    }
    let p = prepared.expect("SETUPS is at least 1");
    m.put("setup_s", median(&setups));
    // A service slice lasts about as long as the other phases' part of a
    // round, so the service gets near a quarter of the run on either workload.
    let slice_s = if args.smoke { 0.02 } else { 1.0 };
    let mut loads: [Box<dyn Load + '_>; 3] = [
        Box::new(codec::CodecLoad::new(&p, tally)),
        Box::new(scan::ScanLoad::new(&p, args.seed, tally)),
        Box::new(service::ServiceLoad::start(&p, args.seed, slice_s)),
    ];
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        loads.iter_mut().for_each(|load| load.step(tally));
        rounds += 1;
    }
    loads.iter().for_each(|load| load.finish(m));
    m.put("peak_rss_mb", env::peak_rss_mb());
}

fn traced(args: &RunArgs, m: &mut Metrics, tally: &mut Tally) {
    let p = setup(args.workload, args.seed, args.smoke);
    let s = args.seconds;
    let rung = s * 0.004;
    ladder::host(rung, m);
    ladder::kernels(rung, m, tally);
    ladder::schemes(rung, m, tally);
    ladder::expr(&p, rung, m, tally);
    ladder::references(&p, rung, m, tally);
    let (codec_off, codec_on) = codec::traced(&p, s * 0.3, m, tally);
    ladder::scan_cost(&p, codec_off.decode_s, m);
    let (scan_off, scan_on) = scan::traced(&p, args.seed, s * 0.25, m, tally);
    let (svc_off, svc_on) = service::traced(&p, args.seed, s * 0.25, m, tally);
    // One of each traced operation, tracing on against tracing off.
    let off = codec_off.decode_s + codec_off.encode_s + scan_off + svc_off;
    let on = codec_on.decode_s + codec_on.encode_s + scan_on + svc_on;
    m.put("trace_overhead_pct", (on - off) / off * 100.0);

    let path = out_dir().join(format!("{}.trace.jsonl", args.workload));
    let written =
        std::fs::create_dir_all(out_dir()).and_then(|()| trace::write_jsonl(&path, &trace::all()));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Runs `args` and orders the metrics as the manifest lists them. Panics if
/// the run produced a different set of metrics than the manifest names: the
/// binary and `BENCHMARK.json` may not drift apart.
pub fn run(args: &RunArgs) -> RunResult {
    let start = Instant::now();
    let (mut m, mut tally) = (Metrics::default(), Tally::default());
    let expected: Vec<(String, &'static str)> = if args.trace {
        traced(args, &mut m, &mut tally);
        per_layer()
            .into_iter()
            .map(|(name, unit, _)| (name, unit))
            .collect()
    } else {
        end_to_end(args, &mut m, &mut tally);
        END_TO_END
            .iter()
            .map(|(name, unit, _, _)| (name.to_string(), *unit))
            .collect()
    };
    let stray: Vec<&str> = m
        .names()
        .filter(|n| !expected.iter().any(|(e, _)| e == n))
        .collect();
    assert!(
        stray.is_empty(),
        "metrics missing from the manifest: {stray:?}"
    );
    let metrics = expected
        .into_iter()
        .map(|(name, unit)| {
            let value = m
                .get(&name)
                .unwrap_or_else(|| panic!("the run did not measure {name}"));
            (name, value, unit)
        })
        .collect();
    RunResult {
        tally,
        metrics,
        samples: m.samples().to_vec(),
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// The result file: the driver's line plus the environment block.
pub fn result_json(args: &RunArgs, result: &RunResult) -> String {
    let env: Vec<String> = env::fields()
        .into_iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let samples: Vec<String> = result
        .samples
        .iter()
        .map(|(k, n)| format!("\"{k}\": {n}"))
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
         \"rows\": {}, \"wall_s\": {:.3}, \"failed_share\": {}, \"samples\": {{{}}}, \"env\": {{{}}}, \
         \"result\": {}}}\n",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        rows_of(args.workload, args.smoke),
        result.wall_s,
        result.tally.failed as f64 / result.tally.attempted.max(1) as f64,
        samples.join(", "),
        env.join(", "),
        result.line(),
    )
}
