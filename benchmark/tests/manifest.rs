//! No drift between `BENCHMARK.json` and the binary, and a working run on a
//! seed the harness was not written against.

use btr_benchmark::data::WORKLOADS;
use btr_benchmark::manifest::{
    benchmark_json, per_layer, END_TO_END, WORKLOADS as MANIFEST_WORKLOADS,
};
use btr_benchmark::run::{run, RunArgs};

#[test]
fn benchmark_json_is_what_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        benchmark_json(),
        "regenerate with: benchmark/run.sh --print-manifest > BENCHMARK.json"
    );
    let names: Vec<&str> = MANIFEST_WORKLOADS.iter().map(|w| w.0).collect();
    assert_eq!(names, WORKLOADS);
}

/// One test, not four: the tracer and the allocation counter are
/// process-wide, so smoke runs must not overlap.
#[test]
fn every_workload_runs_at_smoke_size_on_seed_43_and_emits_the_manifest_metrics() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let result = run(&RunArgs {
                workload,
                seed: 43,
                seconds: 0.2,
                trace,
                smoke: true,
            });
            assert_eq!(result.tally.failed, 0, "{workload} trace={trace}");
            assert!(result.tally.attempted > 0);
            assert!(
                result.correct(),
                "{workload} trace={trace}: a metric is not a number"
            );
            let got: Vec<(&str, &str)> =
                result.metrics.iter().map(|m| (m.0.as_str(), m.2)).collect();
            let want: Vec<(String, &str)> = if trace {
                per_layer().into_iter().map(|m| (m.0, m.1)).collect()
            } else {
                END_TO_END.iter().map(|m| (m.0.to_string(), m.1)).collect()
            };
            let want: Vec<(&str, &str)> = want.iter().map(|m| (m.0.as_str(), m.1)).collect();
            assert_eq!(got, want, "{workload} trace={trace}");
            if !trace {
                assert!(
                    result.metrics.iter().all(|m| m.1 > 0.0),
                    "end-to-end metrics are never 0"
                );
            }
            let line = result.line();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }
}
