#!/usr/bin/env bash
# Repo-wide check: build, tests, and the decode-path panic gate.
#
# The panic gate runs clippy with `unwrap_used` and `panic` promoted to
# errors on every crate that sits on the decode path (the corruption
# hardening contract: corrupt bytes must surface as typed errors, never as
# panics). It lints library targets only — test code and the writers are
# free to unwrap, and `#[allow(clippy::unwrap_used, clippy::panic)]` on an
# encode-side item is the documented escape hatch if one ever needs it.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release)"
cargo build --release --quiet

echo "== tier-1 tests"
cargo test --quiet

echo "== workspace tests (fault-injection campaigns included)"
cargo test --workspace --quiet

echo "== decode-path panic gate"
DECODE_CRATES=(
  btrblocks
  btr-bitpacking
  btr-expr
  btr-fsst
  btr-roaring
  btr-float
  btr-lz
  btr-scan
  btr-server
  parquet-lite
  orc-lite
)
for crate in "${DECODE_CRATES[@]}"; do
  echo "   clippy -p ${crate}"
  cargo clippy -p "${crate}" --lib --quiet -- \
    -D clippy::unwrap_used \
    -D clippy::panic
done

echo "== static analysis (btr-lint --check against lint-ratchet.toml)"
cargo run --release --quiet -p btr-lint -- --check

echo "== clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "== rustdoc (warnings are errors)"
# A deletion leaves dangling intra-doc links behind; they fail here instead
# of shipping.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== chaos campaigns under the runtime lock-order checker"
# The concurrency contract (DESIGN.md §15): with the btr-sync `lock-order`
# feature on, every lock acquisition is checked against the declared
# hierarchy. Both runners of the one campaign — the engine's
# (btr-scan/tests/chaos.rs) and the service's plus the cross-path
# differential (btr-server/tests/chaos.rs) — drive the same worker loop
# (btr_scan::executor), so its real interleavings, not just the lint's
# static view, are shown to respect the ranking under both front ends.
cargo test --release --quiet -p btr-sync -p btr-scan -p btr-server --features lock-order

echo "== DESIGN.md does not grow"
# House rule (ROADMAP): a PR rewrites the design document in place; history
# belongs in CHANGES.md. The base is HEAD while DESIGN.md has uncommitted
# edits and HEAD~1 once they are committed, so the gate still holds after
# the commit instead of comparing the file with itself.
if git diff --quiet HEAD -- DESIGN.md; then design_base=HEAD~1; else design_base=HEAD; fi
design_now="$(wc -c < DESIGN.md)"
design_then="$(git show "${design_base}:DESIGN.md" | wc -c)"
if [ "${design_now}" -gt "${design_then}" ]; then
  echo "error: DESIGN.md is ${design_now} bytes, ${design_base}'s is ${design_then}; it may not grow" >&2
  exit 1
fi

echo "== benchmark harness smoke (every workload at smoke size)"
# `cargo --offline` rewrites the tracked benchmark/Cargo.lock in place; put
# the committed bytes back however this step ends.
lock_backup="$(mktemp)"
cp benchmark/Cargo.lock "${lock_backup}"
trap 'cp "${lock_backup}" benchmark/Cargo.lock; rm -f "${lock_backup}"' EXIT
(cd benchmark && cargo test --offline --quiet)
cp "${lock_backup}" benchmark/Cargo.lock

echo "== the benchmark is untouched"
# A change that claims a gain must be measured by the parent's benchmark.
# Staged, unstaged and untracked alike (`git diff --quiet -- benchmark
# BENCHMARK.json` plus what it misses).
dirty="$(git status --porcelain -- benchmark BENCHMARK.json)"
if [ -n "${dirty}" ]; then
  echo "error: benchmark/ or BENCHMARK.json differs from HEAD; a change may not edit the" >&2
  echo "       benchmark that measures it (git checkout HEAD -- benchmark BENCHMARK.json):" >&2
  echo "${dirty}" >&2
  exit 1
fi

echo "== only benchmark/ times results; simulated time never reads the host clock"
# btr-bench prints byte counts; btr-sync holds the simulated clock (SimClock)
# and btr-s3sim reports latency on it. A host-clock read in any of them is a
# second instrument beside the harness, and would make simulated time (and a
# seeded schedule replayed on it) depend on the machine.
if grep -rnE 'Instant|SystemTime' crates/btr-bench crates/btr-s3sim crates/btr-sync; then
  echo "error: crates/btr-bench, crates/btr-s3sim and crates/btr-sync may not read the host clock" >&2
  exit 1
fi

echo "ok"
