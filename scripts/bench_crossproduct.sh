#!/usr/bin/env bash
# Scheduler x CC cross-product grid: builds Release (release preset) and
# refreshes BENCH_crossproduct.json at the repo root so PRs can compare
# per-(scheduler, cc, ratio) completion times and Jain fairness cells
# against the committed baseline.
#
#   scripts/bench_crossproduct.sh                       # write/update BENCH_crossproduct.json
#   MPS_BENCH_SCALE=paper scripts/bench_crossproduct.sh # full-scale grid
set -euo pipefail

cd "$(dirname "$0")/.."

if cmake --list-presets >/dev/null 2>&1; then
  cmake --preset release >/dev/null
else
  # CMake without preset support (< 3.21): equivalent manual configure.
  cmake -S . -B build-release -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
cmake --build build-release -j "$(nproc)" --target bench_crossproduct
./build-release/bench/bench_crossproduct BENCH_crossproduct.json
echo "bench_crossproduct.sh: BENCH_crossproduct.json updated"
