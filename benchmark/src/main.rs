//! `benchmark/run.sh` ends here. Two modes:
//!
//! * `--workload W [--seed N] [--seconds S] [--trace 0|1]`: one run; the last
//!   line of standard output is the result object the driver reads.
//! * no `--workload`: the whole suite, every workload untraced then traced,
//!   each in a child process so peak memory is per run; `--repeat 2` runs it
//!   twice and compares the two sets against the bounds.

use btr_benchmark::data::WORKLOADS;
use btr_benchmark::manifest::{benchmark_json, END_TO_END, RUN_SECONDS};
use btr_benchmark::run::{out_dir, result_json, run, RunArgs};
use std::process::{Command, ExitCode};

struct Cli {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

fn parse() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().find(|w| **w == name);
                cli.workload =
                    Some(known.ok_or_else(|| {
                        format!("unknown workload {name:?}; one of {WORKLOADS:?}")
                    })?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => cli.trace = value()? != "0",
            "--repeat" => cli.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--smoke" => cli.smoke = true,
            "--print-manifest" => {
                print!("{}", benchmark_json());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {}", cli.seconds));
    }
    Ok(cli)
}

fn single(workload: &'static str, cli: &Cli) -> ExitCode {
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
    };
    let result = run(&args);
    let mode = if args.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!(
        "# {workload} seed {} {mode}: {:.1} s wall",
        args.seed, result.wall_s
    );
    for (name, value, unit) in &result.metrics {
        println!("{name:<48} {value:>16.4} {unit}");
    }
    println!(
        "failed_share {} ({} failed of {} attempted)",
        result.tally.failed as f64 / result.tally.attempted.max(1) as f64,
        result.tally.failed,
        result.tally.attempted
    );
    let path = out_dir().join(format!(
        "{workload}.{}.json",
        if args.trace { "trace" } else { "e2e" }
    ));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, result_json(&args, &result)));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    println!("{}", result.line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one child and returns its metrics `(name, value)`, or `None` if it
/// failed. The child's own report is passed through.
fn child(workload: &str, cli: &Cli, trace: bool) -> Option<Vec<(String, f64)>> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &cli.seed.to_string()]);
    cmd.args([
        "--seconds",
        &cli.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, line) = stdout.trim_end().rsplit_once('\n')?;
    println!("{report}");
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        return None;
    }
    // `"name": {"value": v, "unit": "u"}` repeated; names hold no quotes.
    let metrics = line
        .split("\"value\": ")
        .skip(1)
        .zip(line.split(": {\"value\""))
        .map(|(after, before)| {
            let name = before.rsplit('"').nth(1).unwrap_or_default().to_string();
            let value = after
                .split(',')
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(f64::NAN);
            (name, value)
        });
    Some(metrics.collect())
}

fn suite(cli: &Cli) -> ExitCode {
    let mut ok = true;
    // sets[repeat][workload] = end-to-end metrics; memcpy per set for the noise canary.
    let mut sets: Vec<Vec<Vec<(String, f64)>>> = Vec::new();
    let mut memcpy: Vec<f64> = Vec::new();
    for _ in 0..cli.repeat {
        let mut set = Vec::new();
        for workload in WORKLOADS {
            let end_to_end = child(workload, cli, false);
            let per_layer = child(workload, cli, true);
            ok &= end_to_end.is_some() && per_layer.is_some();
            set.push(end_to_end.unwrap_or_default());
            if let Some(copy) =
                per_layer.and_then(|m| m.into_iter().find(|m| m.0 == "host.memcpy_gbps"))
            {
                memcpy.push(copy.1);
            }
        }
        sets.push(set);
    }
    if let [first, .., last] = sets.as_slice() {
        println!("# repeatability: first set against last set");
        for (w, workload) in WORKLOADS.iter().enumerate() {
            for (name, _, better, bound) in END_TO_END {
                let find = |set: &Vec<Vec<(String, f64)>>| {
                    set[w].iter().find(|m| m.0 == name).map(|m| m.1)
                };
                let (Some(a), Some(b)) = (find(first), find(last)) else {
                    continue;
                };
                let worse = if better == "lower" {
                    (b - a) / a
                } else {
                    (a - b) / a
                };
                let pass = worse <= bound;
                ok &= pass;
                println!(
                    "{workload:<5} {name:<22} {a:>14.4} {b:>14.4} {:>+7.2} % (bound {:.1} %) {}",
                    (b - a) / a * 100.0,
                    bound * 100.0,
                    if pass { "PASS" } else { "FAIL" }
                );
            }
        }
        let (lo, hi) = memcpy
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        if hi > lo * 1.15 {
            println!("host.memcpy_gbps ranged {lo:.2}..{hi:.2} GB/s: the host is too noisy to blame the code");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = match parse() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match cli.workload {
        Some(workload) => single(workload, &cli),
        None => suite(&cli),
    }
}
