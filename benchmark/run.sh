#!/usr/bin/env bash
# The benchmark's one command. Builds the harness (a Cargo package of its own,
# path-depending on ../crates) and runs it.
#
#   benchmark/run.sh --workload pbi|tpch [--seed N] [--seconds S] [--trace 0|1]
#       one run; the last line of standard output is the result object
#   benchmark/run.sh [--seed N] [--seconds S] [--repeat 2]
#       the whole suite: every workload untraced, then traced; with --repeat 2
#       twice, compared against the bounds in BENCHMARK.json
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/btr-benchmark" "$@"
