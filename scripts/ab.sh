#!/usr/bin/env bash
# A/B a change against its parent on the repository's benchmark
# (choosing-metrics section 8): N pairs of untraced runs, alternating which
# tree runs first, one seed per pair; per end-to-end metric both medians, both
# quartile pairs, the win count, the spread and a verdict.
#
# verdict: "better" when the change wins at least nine tenths of the pairs (a
# tie is no win) and its median moves the right way by more than the parent's
# inter-quartile distance; "WORSE than bound" when the median is worse than
# the parent's by more than the metric's bound; "slower" when the change loses
# nine tenths of the pairs and its median moves the wrong way by more than the
# parent's inter-quartile distance - a steady regression inside the bound,
# which "within bound" would hide; else "within bound".
#
# spread = the change's inter-quartile distance / (the metric's bound x the
# parent's median): the steadiness test the driver applies to every metric,
# whichever way it moved. Above 1.0 the row is marked UNSTEADY even when every
# change run beats every parent run - a metric that improves by more than
# ~1.6x carries this host's 12-15 % memory-mode swing on a larger base and can
# be refused on that alone (PR 21: svc_scans_per_s read "better", IQR 94.6
# against 87.0).
#
# The last line is the gate summary: every row marked WORSE, slower or
# UNSTEADY on this workload (or "none"), and each side's failed-operation
# share. Above it, for information only (no verdict, not in the gate), each
# side's median minor page faults per run and per attempted operation: a
# step that removes copies can move first-touch faults instead (ROADMAP,
# Known artefacts), so the faults are counted next to the timings.
#
#   scripts/ab.sh <parent-tree> <change-tree> --workload pbi|tpch --pairs N
#                 [--seed-base S] [--out DIR] [--report-only]
#
# Each tree is a checkout whose harness is already built where benchmark/run.sh
# puts it, <tree>/benchmark/target/release/btr-benchmark:
#
#   (cd <tree> && cargo build --release --offline --manifest-path benchmark/Cargo.toml \
#        && git checkout -- benchmark/Cargo.lock)
#
# Run length is the harness's own --seconds, read from the change tree's
# BENCHMARK.json. Reads only the last line (the result JSON) of each run and
# keeps every run's line in the --out directory (default: a fresh mktemp -d),
# next to its minor-fault count (<workload>.<seed>.<side>.faults, from
# getrusage(RUSAGE_CHILDREN) around the run); the script itself writes
# nothing under benchmark/. --report-only prints the table again from the
# files an earlier call left in --out, without the fault rows if that
# directory has no fault counts.
set -euo pipefail

usage() { sed -n '2,46p' "$0" >&2; exit 2; }

[ $# -ge 2 ] || usage
parent="$(cd "$1" && pwd)"; change="$(cd "$2" && pwd)"; shift 2
workload=""; pairs=""; seed_base=101; out=""; report_only=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seed-base) seed_base="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --report-only) report_only=1; shift ;;
    *) usage ;;
  esac
done
[ -n "${workload}" ] && [ -n "${pairs}" ] || usage
out="${out:-$(mktemp -d)}"; mkdir -p "${out}"

harness() {
  local bin="$1/benchmark/target/release/btr-benchmark"
  if [ ! -x "${bin}" ]; then
    echo "error: ${bin} is not built (see the header of $0)" >&2
    exit 1
  fi
  echo "${bin}"
}
parent_bin="$(harness "${parent}")"; change_bin="$(harness "${change}")"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "${change}/BENCHMARK.json")"

run() { # side bin seed
  python3 -c '
import resource, subprocess, sys
before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
code = subprocess.call(sys.argv[2:])
after = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
with open(sys.argv[1], "w") as f:
    f.write(f"{after - before}\n")
sys.exit(code)
' "${out}/${workload}.$3.$1.faults" \
    "$2" --workload "${workload}" --seed "$3" --seconds "${seconds}" --trace 0 \
    | tail -n 1 > "${out}/${workload}.$3.$1.json"
}

for ((i = 0; i < pairs && report_only == 0; i++)); do
  seed=$((seed_base + i))
  if ((i % 2 == 0)); then
    order="parent change"
  else
    order="change parent"
  fi
  echo "pair $((i + 1))/${pairs}: seed ${seed}, ${order}" >&2
  for side in ${order}; do
    if [ "${side}" = parent ]; then
      run parent "${parent_bin}" "${seed}"
    else
      run change "${change_bin}" "${seed}"
    fi
  done
done

python3 - "${change}/BENCHMARK.json" "${out}" "${workload}" "${seed_base}" "${pairs}" <<'PY'
import json, os, statistics, sys

manifest, out, workload, seed_base, pairs = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), int(sys.argv[5])
metrics = json.load(open(manifest))["end_to_end"]
runs = {"parent": [], "change": []}
for seed in range(seed_base, seed_base + pairs):
    for side in runs:
        runs[side].append(json.load(open(f"{out}/{workload}.{seed}.{side}.json")))

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[1], q[2]

print(f"workload {workload}, {pairs} alternating pairs, seeds {seed_base}-{seed_base + pairs - 1}; results in {out}")
failed_share = {}
for side, rs in runs.items():
    failed = sum(r["failed"] for r in rs)
    attempted = sum(r["attempted"] for r in rs)
    failed_share[side] = f"{failed}/{attempted} ({failed / attempted if attempted else 0.0:.3%})"
    print(f"{side}: failed {failed} of {attempted} attempted")
head = f"{'metric':<21} {'parent median [q1, q3]':<28} {'change median [q1, q3]':<28} {'ratio':>6} {'wins':>6} {'spread':>6}  verdict"
print(head)
flagged = []
for m in metrics:
    name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
    wins = sum((y > x) if higher else (y < x) for x, y in zip(p, c))
    losses = sum((y < x) if higher else (y > x) for x, y in zip(p, c))
    # Section 8: win nine tenths of all pairs run (a tie is no win) and move
    # the median by more than the parent's own inter-quartile distance;
    # "slower" is the same rule read the other way.
    gain = (cm - pm) if higher else (pm - cm)
    worse_by = -gain / pm if pm else 0.0
    if wins * 10 >= 9 * pairs and gain > (p3 - p1):
        verdict = "better"
    elif worse_by > bound:
        verdict = f"WORSE than bound {bound:.0%}"
    elif losses * 10 >= 9 * pairs and -gain > (p3 - p1):
        verdict = "slower"
    else:
        verdict = "within bound"
    spread = (c3 - c1) / (bound * abs(pm)) if pm else 0.0
    if spread > 1.0:
        verdict += "  UNSTEADY"
    fmt = lambda m_, a, b: f"{m_:.4g} [{a:.4g}, {b:.4g}]"
    ratio = cm / pm if pm else float("nan")
    print(f"{name:<21} {fmt(pm, p1, p3):<28} {fmt(cm, c1, c3):<28} {ratio:>6.3f} {wins:>3}/{pairs:<2} {spread:>6.2f}  {verdict}")
    if any(flag in verdict for flag in ("WORSE", "slower", "UNSTEADY")):
        flagged.append(f"{name} ({verdict.strip()})")
# Minor page faults, for information only: no verdict, not in the gate.
fault_files = {side: [f"{out}/{workload}.{seed}.{side}.faults" for seed in range(seed_base, seed_base + pairs)] for side in runs}
if all(os.path.exists(f) for files in fault_files.values() for f in files):
    for side, files in fault_files.items():
        faults = [int(open(f).read()) for f in files]
        per_op = [n / r["attempted"] for n, r in zip(faults, runs[side]) if r["attempted"]]
        per_op_median = f"{statistics.median(per_op):.1f}" if per_op else "n/a"
        print(f"{side}: minor faults median {statistics.median(faults):.0f} per run, {per_op_median} per attempted operation (information only)")
print(f"gate {workload}: flagged {', '.join(flagged) or 'none'}; failed parent {failed_share['parent']}, change {failed_share['change']}")
PY
