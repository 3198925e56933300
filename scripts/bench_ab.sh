#!/usr/bin/env bash
# A/B comparison of the gated benchmark (perfbench/) between a base revision
# and the working tree, run alternately in pairs so slow drift of the host
# falls on both sides alike (perfbench/README.md, "Steadiness and bounds").
#
#   scripts/bench_ab.sh <base-rev> <workload> [pairs]
#   scripts/bench_ab.sh HEAD~1 paper_cells 10
#   scripts/bench_ab.sh HEAD~1 crowd_10k 0     # the count check alone
#
# <base-rev> is checked out in a temporary shared clone with its own
# CARGO_TARGET_DIR; the working tree builds into $CARGO_TARGET_DIR (default
# .bench_build/). Before any timing, both sides run once traced (--trace 1,
# seed 1, a short run) and the script stops with status 1 if any model count
# differs: sim.events, net.*, fault.*, tcp.*, mptcp.*, traffic.flows_*. A
# pure performance change must leave all of them equal, so this one command
# also checks "counts unchanged". Pair i then runs both sides at seed i, each
# for BENCHMARK.json's run_seconds, with the side that goes first alternating
# between pairs. Each run's raw result line is printed as it finishes; the
# summary prints every end-to-end metric's median per side, the ratio
# change/base, the pairs the change won (ties count for neither side), the
# base runs' interquartile range and the failed-op totals.
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
trap 'rm -rf "$tmp"' EXIT
git clone -q --shared --no-checkout "$root" "$tmp/tree"
git -C "$tmp/tree" checkout -q --detach "$base_sha"

runs="$tmp/runs.jsonl"
: > "$runs"
run_side() {  # <side> <dir> <target-dir> <seed>
  local line
  line="$(cd "$2" && CARGO_TARGET_DIR="$3" python3 perfbench/run.py \
    --workload "$workload" --seed "$4" --seconds "$seconds" --trace 0 2>>"$tmp/build.log" |
    tail -n 1)"
  printf '{"side": "%s", "seed": %s, "result": %s}\n' "$1" "$4" "$line" | tee -a "$runs"
}

count_run() {  # <dir> <target-dir> <out-file>
  (cd "$1" && CARGO_TARGET_DIR="$2" python3 perfbench/run.py --workload "$workload" \
    --seed 1 --seconds 6 --trace 1 2>>"$tmp/build.log" | tail -n 1) > "$3"
}
count_run "$tmp/tree" "$tmp/build" "$tmp/counts_base.json"
count_run "$root" "${CARGO_TARGET_DIR:-.bench_build}" "$tmp/counts_change.json"
python3 - "$tmp/counts_base.json" "$tmp/counts_change.json" <<'EOF'
import json, sys

base, change = (json.load(open(f))["metrics"] for f in sys.argv[1:3])
counted = lambda n: n == "sim.events" or n.startswith(("net.", "fault.", "tcp.", "mptcp.",
                                                        "traffic.flows_"))
names = sorted(n for n in base if counted(n))
diff = [n for n in names if base[n]["value"] != change.get(n, {}).get("value")]
for n in diff:
    print(f"count differs: {n} base {base[n]['value']} change {change.get(n, {}).get('value')}")
print(f"bench_ab: counts {'DIFFER' if diff else 'unchanged'} ({len(names)} metrics, seed 1)")
sys.exit(1 if diff else 0)
EOF
((pairs > 0)) || exit 0  # `... <workload> 0` is the count check alone

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
