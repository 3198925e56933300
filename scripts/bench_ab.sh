#!/usr/bin/env bash
# A/B comparison of the gated benchmark (perfbench/) between a base revision
# and the working tree, run alternately in pairs so slow drift of the host
# falls on both sides alike (perfbench/README.md, "Steadiness and bounds").
#
#   scripts/bench_ab.sh <base-rev> <workload> [pairs]
#   scripts/bench_ab.sh HEAD~1 paper_cells 10
#
# <base-rev> is built in a temporary `git worktree` with its own
# CARGO_TARGET_DIR; the working tree builds into $CARGO_TARGET_DIR (default
# .bench_build/). Pair i runs both sides at seed i, each for BENCHMARK.json's
# run_seconds, with the side that goes first alternating between pairs. Each
# run's raw result line is printed as it finishes; the summary prints every
# end-to-end metric's median per side, the ratio change/base, the pairs the
# change won (ties count for neither side), the base runs' interquartile range
# and the failed-op totals.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
  echo "usage: $0 <base-rev> <workload> [pairs]" >&2
  exit 2
fi
base_rev="$1"
workload="$2"
pairs="${3:-5}"

cd "$(dirname "$0")/.."
root="$(pwd)"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
base_sha="$(git rev-parse --verify "$base_rev^{commit}")"

tmp="$(mktemp -d)"
cleanup() {
  git -C "$root" worktree remove --force "$tmp/tree" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --detach "$tmp/tree" "$base_sha" >/dev/null

runs="$tmp/runs.jsonl"
: > "$runs"
run_side() {  # <side> <dir> <target-dir> <seed>
  local line
  line="$(cd "$2" && CARGO_TARGET_DIR="$3" python3 perfbench/run.py \
    --workload "$workload" --seed "$4" --seconds "$seconds" --trace 0 2>>"$tmp/build.log" |
    tail -n 1)"
  printf '{"side": "%s", "seed": %s, "result": %s}\n' "$1" "$4" "$line" | tee -a "$runs"
}

echo "bench_ab: $workload, base ${base_sha:0:12} vs working tree, $pairs pairs x ${seconds}s"
for ((seed = 1; seed <= pairs; ++seed)); do
  if ((seed % 2 == 1)); then
    run_side base "$tmp/tree" "$tmp/build" "$seed"
    run_side change "$root" "${CARGO_TARGET_DIR:-.bench_build}" "$seed"
  else
    run_side change "$root" "${CARGO_TARGET_DIR:-.bench_build}" "$seed"
    run_side base "$tmp/tree" "$tmp/build" "$seed"
  fi
done

python3 - "$runs" BENCHMARK.json <<'EOF'
import json, statistics, sys

sides = {"base": {}, "change": {}}
for line in open(sys.argv[1]):
    rec = json.loads(line)
    sides[rec["side"]][rec["seed"]] = rec["result"]
seeds = sorted(sides["base"])
print(f"{'metric':<18} {'base':>12} {'change':>12} {'ratio':>8} {'won':>7} {'base IQR':>10}")
for m in json.load(open(sys.argv[2]))["end_to_end"]:
    name = m["name"]
    vals = {s: [runs[k]["metrics"][name]["value"] for k in seeds] for s, runs in sides.items()}
    med = {s: statistics.median(v) for s, v in vals.items()}
    sign = 1 if m["better"] == "lower" else -1
    won = sum(sign * (c - b) < 0 for b, c in zip(vals["base"], vals["change"]))
    ratio = med["change"] / med["base"] if med["base"] else float("nan")
    q = statistics.quantiles(vals["base"], n=4) if len(seeds) > 1 else [0, 0, 0]
    print(f"{name:<18} {med['base']:>12.5g} {med['change']:>12.5g} {ratio:>8.3f} "
          f"{won:>3}/{len(seeds)} {q[2] - q[0]:>10.4g}")
for s, runs in sides.items():
    print(f"{s}: failed ops {sum(r['failed'] for r in runs.values())} of "
          f"{sum(r['attempted'] for r in runs.values())}")
EOF
