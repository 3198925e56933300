#!/usr/bin/env bash
# End-to-end wall time of the paper suite: builds Release (bench-speed
# preset, build-release/) and writes BENCH_suite.json at the repo root with
# the median and quartiles of 5 back-to-back runs of paper_suite (every
# section, MPS_BENCH_SCALE as set, quick by default), the declared and
# distinct cell counts, nproc, the CPU, the compiler and the revision. Every
# run's stdout must be identical, or the script fails.
#
#   scripts/bench_suite.sh                    # write/update BENCH_suite.json
#   MPS_BENCH_JOBS=2 scripts/bench_suite.sh   # pin the worker count
set -euo pipefail

cd "$(dirname "$0")/.."

if cmake --list-presets >/dev/null 2>&1; then
  cmake --preset bench-speed >/dev/null
else
  # CMake without preset support (< 3.21): equivalent manual configure.
  cmake -S . -B build-release -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
cmake --build build-release -j "$(nproc)" --target paper_suite

python3 - build-release <<'EOF_PY'
import json, os, re, statistics, subprocess, sys, time

build = sys.argv[1]
walls, outputs, summary = [], set(), ""
for _ in range(5):
    start = time.perf_counter()
    run = subprocess.run([f"{build}/bench/paper_suite"], capture_output=True, check=True)
    walls.append(time.perf_counter() - start)
    outputs.add(run.stdout)
    summary = run.stderr.decode().strip()
if len(outputs) != 1:
    sys.exit("bench_suite: paper_suite's output differs between runs")
m = re.search(r"(\d+) sections, (\d+) cells declared, (\d+) distinct runs", summary)
if not m:
    sys.exit(f"bench_suite: no cell summary in paper_suite's stderr: {summary!r}")

def cache(key):
    with open(f"{build}/CMakeCache.txt") as f:
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
q1, median, q3 = statistics.quantiles(walls, n=4, method="inclusive")
doc = {
    "bench": "paper_suite",
    "scale": os.environ.get("MPS_BENCH_SCALE", "quick"),
    "jobs": os.environ.get("MPS_BENCH_JOBS", "nproc"),
    "runs": len(walls),
    "wall_s": {"median": median, "q1": q1, "q3": q3, "all": walls},
    "sections": int(m.group(1)),
    "cells_declared": int(m.group(2)),
    "cells_distinct": int(m.group(3)),
    "nproc": os.cpu_count(),
    "cpu": cpu,
    "compiler": compiler,
    "build_type": cache("CMAKE_BUILD_TYPE"),
    "rev": rev + ("-dirty" if dirty else ""),
}
with open("BENCH_suite.json", "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"paper_suite wall: median {median:.2f} s (q1 {q1:.2f}, q3 {q3:.2f}), "
      f"{doc['cells_declared']} cells declared, {doc['cells_distinct']} distinct")
EOF_PY
echo "bench_suite.sh: BENCH_suite.json updated"
