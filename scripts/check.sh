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

echo "== examples run to completion (release, stdout discarded)"
# `cargo test` only compiles examples/; a rewritten example that panics or
# fails an assertion surfaces here instead.
for example in examples/*.rs; do
  name="$(basename "${example}" .rs)"
  echo "   ${name}"
  cargo run --release --quiet --example "${name}" > /dev/null
done

echo "== workspace tests (fault-injection campaigns included)"
cargo test --workspace --quiet

echo "== allocation guards hold one #[test] per binary"
# A tests/alloc_*.rs binary that installs a tracking #[global_allocator]
# reads process-global counters: a second #[test] in it runs on a sibling
# thread and counts its allocations into the first one's measured window.
for guard in $(find crates tests -path '*/tests/alloc_*.rs' | sort); do
  if grep -q '#\[global_allocator\]' "${guard}"; then
    tests="$(grep -c '^[[:space:]]*#\[test\]' "${guard}" || true)"
    if [ "${tests}" -gt 1 ]; then
      echo "error: ${guard} installs a #[global_allocator] and holds ${tests} #[test]s; keep one per binary" >&2
      exit 1
    fi
  fi
done

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

echo "== the newest CHANGES.md entry is at most 4 KB"
# House rule (ROADMAP): an entry says what changed, why, and how it was
# verified in at most 4,096 bytes. The entry is the last line that starts
# with `PR <n>`, plus any lines under it up to a `PR`, `FOUND:` or
# `MENDED:` line. Bytes, not characters, hence the C locale.
entry_bytes="$(LC_ALL=C awk '
  /^PR [0-9]+/ { n = -1; inside = 1 }
  /^(FOUND|MENDED):/ { inside = 0 }
  inside { n += length($0) + 1 }
  END { print n + 0 }' CHANGES.md)"
if [ "${entry_bytes}" -gt 4096 ]; then
  echo "error: the newest PR entry in CHANGES.md is ${entry_bytes} bytes; the limit is 4096" >&2
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
