#!/usr/bin/env bash
# The performance ledger: the three end-to-end numbers, each as the median,
# quartiles and every value of 5 interleaved rounds, plus the hardware they
# ran on, written to BENCH_ledger.json at the repo root.
#
# Each round runs these processes in turn, from one Release build
# (build-release/):
#   * paper_suite at quick scale, once: suite wall, plus the sweep's
#     per-worker busy/wait/idle from --prof-out;
#   * bench_scale --cells N for N = 1k, 10k, 100k: ns per delivered packet;
#   * mps_run <preset> --prof-out once per preset in scenarios/: sim-s per
#     wall-s, the report's run.sim_s / run.wall_s.
# One pass of bench_scale in the -DMPS_PROF=ON build (build-prof/) adds each
# scale cell's resident bytes per flow, a deterministic count.
#
# A process more than 1.5x off its number's median (slower) is listed under
# that number's "slow" (its round index), not dropped. The ledger is not
# written when the runs disagree on what must be deterministic: any
# paper_suite or mps_run stdout and exit status, or a scale cell's events,
# started, completed or pkts_delivered.
#
#   scripts/bench_ledger.sh      # write/update BENCH_ledger.json
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -S . -B build-release -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake -S . -B build-prof -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMPS_PROF=ON >/dev/null
cmake --build build-release -j "$(nproc)" --target paper_suite bench_scale mps_run
cmake --build build-prof -j "$(nproc)" --target bench_scale

python3 - <<'EOF_PY'
import atexit, glob, json, os, re, shutil, statistics, subprocess, sys, tempfile, time

ROUNDS = 5
SLOW = 1.5
CELLS = (1000, 10000, 100000)
COUNTS = ("events", "started", "completed", "pkts_delivered")
rel, prof = "build-release", "build-prof"
env = {k: v for k, v in os.environ.items() if k != "MPS_BENCH_JOBS"}  # nproc workers
env["MPS_BENCH_SCALE"] = "quick"
tmp = tempfile.mkdtemp()
atexit.register(shutil.rmtree, tmp)

def run(*cmd, ok=(0,)):
    start = time.perf_counter()
    p = subprocess.run(cmd, capture_output=True, env=env)
    wall = time.perf_counter() - start
    if p.returncode not in ok:
        sys.exit(f"bench_ledger: {' '.join(cmd)} exited {p.returncode}\n{p.stderr.decode()}")
    return p, wall

def load(path):
    with open(path) as f:
        return json.load(f)

def stats(values, higher_is_better=False):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    slow = [i for i, v in enumerate(values)
            if (median / v if higher_is_better else v / median) > SLOW]
    return {"median": median, "q1": q1, "q3": q3, "all": values, "slow": slow}

presets = sorted(glob.glob("scenarios/*.json"))
seen = {}  # what each process must repeat exactly, per process
suite_wall, suite_workers = [], []
ns_per_pkt = {n: [] for n in CELLS}
cells = {}
sim_per_wall = {p: [] for p in presets}
sim_s = {}
for _ in range(ROUNDS):
    p, wall = run(f"{rel}/bench/paper_suite", "--prof-out", f"{tmp}/suite.json")
    seen.setdefault("paper_suite", set()).add(p.stdout)
    suite_wall.append(wall)
    suite_workers.append(load(f"{tmp}/suite.json")["workers"])
    summary = p.stderr.decode()
    for n in CELLS:
        run(f"{rel}/bench/bench_scale", "--cells", str(n), "--out", f"{tmp}/scale.json")
        cell = load(f"{tmp}/scale.json")["cells"][0]
        seen.setdefault(f"bench_scale {n}", set()).add(tuple(cell[k] for k in COUNTS))
        ns_per_pkt[n].append(cell["ns_per_pkt"])
        cells[n] = cell
    for spec in presets:
        p, _ = run(f"{rel}/tools/mps_run", spec, "--prof-out", f"{tmp}/run.json", ok=(0, 3))
        seen.setdefault(spec, set()).add((p.returncode, p.stdout))
        report = load(f"{tmp}/run.json")["run"]
        sim_per_wall[spec].append(report["sim_s"] / report["wall_s"])
        sim_s[spec] = report["sim_s"]
differ = sorted(k for k, v in seen.items() if len(v) != 1)
if differ:
    sys.exit("bench_ledger: not deterministic across rounds: " + ", ".join(differ))

run(f"{prof}/bench/bench_scale", "--cells", ",".join(map(str, CELLS)), "--out", f"{tmp}/mem.json")
bytes_per_flow = {c["flows"]: c["bytes_per_flow"] for c in load(f"{tmp}/mem.json")["cells"]}

def cache(key):
    with open(f"{rel}/CMakeCache.txt") as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""

cpu = ""
with open("/proc/cpuinfo") as f:
    for line in f:
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
compiler = subprocess.run([cache("CMAKE_CXX_COMPILER"), "--version"], capture_output=True,
                          text=True).stdout.splitlines()[0]
rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                       capture_output=True, text=True).stdout.strip()
m = re.search(r"(\d+) sections, (\d+) cells declared, (\d+) distinct runs", summary)
doc = {
    "bench": "ledger",
    "rounds": ROUNDS,
    "slow_factor": SLOW,
    "suite": {
        "scale": "quick",
        "sections": int(m.group(1)),
        "cells_declared": int(m.group(2)),
        "cells_distinct": int(m.group(3)),
        "wall_s": stats(suite_wall),
        "workers": suite_workers,
    },
    "scale_cells": [dict({k: cells[n][k] for k in ("flows", "duration_s") + COUNTS},
                         ns_per_pkt=stats(ns_per_pkt[n]), bytes_per_flow=bytes_per_flow[n])
                    for n in CELLS],
    "presets": {os.path.basename(p)[:-5]: {"sim_s": sim_s[p],
                                           "sim_s_per_wall_s": stats(sim_per_wall[p], True)}
                for p in presets},
    "nproc": os.cpu_count(),
    "cpu": cpu,
    "compiler": compiler,
    "build_type": cache("CMAKE_BUILD_TYPE"),
    "rev": rev + ("-dirty" if dirty else ""),
}
with open("BENCH_ledger.json", "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
wall = doc["suite"]["wall_s"]
print(f"suite wall: median {wall['median']:.2f} s (q1 {wall['q1']:.2f}, q3 {wall['q3']:.2f})")
for c in doc["scale_cells"]:
    s = c["ns_per_pkt"]
    print(f"{c['flows']:>6} flows: median {s['median']:.0f} ns/pkt "
          f"(q1 {s['q1']:.0f}, q3 {s['q3']:.0f}), {c['bytes_per_flow']:.0f} B/flow")
for name, p in doc["presets"].items():
    s = p["sim_s_per_wall_s"]
    print(f"{name:>26}: median {s['median']:.0f} sim-s/wall-s "
          f"(q1 {s['q1']:.0f}, q3 {s['q3']:.0f})")
EOF_PY
echo "bench_ledger.sh: BENCH_ledger.json updated"
