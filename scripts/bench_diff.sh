#!/usr/bin/env bash
# Output identity of the paper benches between a base revision and the
# working tree: a change that claims to leave every result alone must leave
# every printed figure byte-identical.
#
#   scripts/bench_diff.sh <base-rev>
#   scripts/bench_diff.sh HEAD~1
#
# <base-rev> is checked out in a temporary shared clone (scripts/
# clone_base.sh, as bench_ab.sh does); both sides build Release into the
# same temporary directory, so nothing is written into the tree. paper_suite
# (every figure, table and ablation), bench_fairness and bench_crossproduct
# run at quick scale (MPS_BENCH_SCALE unset) on both sides with the
# temporary directory as their working directory, and the two stdouts are
# compared with cmp (plus bench_crossproduct's JSON); a nonzero exit is
# appended to the output it belongs to. A base from before paper_suite
# existed runs its per-figure binaries instead, in the order its
# bench/CMakeLists.txt declares them (the suite's table order), and their
# stdouts are concatenated. bench_speed, bench_scale and
# bench_micro_scheduler print timings and are skipped. Exits 1 naming each
# binary whose output differs (or that fails on either side).
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-rev>" >&2
  exit 2
fi

cd "$(dirname "$0")/.."
root="$(pwd)"
source scripts/clone_base.sh

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
base_sha="$(clone_base "$1" "$tmp/tree")"

bins=(paper_suite bench_fairness bench_crossproduct)
# The targets and commands that stand for paper_suite on each side.
suite_base=(paper_suite)
if [[ ! -f "$tmp/tree/bench/paper_suite.cpp" ]]; then
  mapfile -t suite_base < <(sed -n 's/^mps_bench(\(bench_\(fig\|tab\|ablation\)[a-z0-9_]*\))$/\1/p' \
    "$tmp/tree/bench/CMakeLists.txt")
fi

build() {  # <source-dir> <build-dir> <target>...
  local src="$1" dir="$2"
  shift 2
  cmake -S "$src" -B "$dir" -DCMAKE_BUILD_TYPE=Release > "$dir.log" 2>&1
  cmake --build "$dir" -j "$(nproc)" --target "$@" >> "$dir.log" 2>&1 ||
    { echo "bench_diff: build of $src failed, see:"; tail -n 20 "$dir.log"; exit 1; }
}
build "$tmp/tree" "$tmp/base" "${suite_base[@]}" bench_fairness bench_crossproduct
build "$root" "$tmp/change" "${bins[@]}"

differ=()
mkdir -p "$tmp/run"
for name in "${bins[@]}"; do
  for side in base change; do
    out="$tmp/$name.$side"
    json="$tmp/run/$name.json"
    cmds=("$name")
    [[ "$name" == paper_suite && "$side" == base ]] && cmds=("${suite_base[@]}")
    args=()
    # bench_crossproduct also writes its JSON grid (and prints the path, so
    # both sides use the same one); it is compared along with stdout.
    [[ "$name" == bench_crossproduct ]] && args=("$json")
    : > "$out"
    for cmd in "${cmds[@]}"; do
      (cd "$tmp/run" && "$tmp/$side/bench/$cmd" "${args[@]}" >> "$out" 2> "$out.err") ||
        { echo "exit $? ($cmd)" >> "$out"; cat "$out.err" >&2; }
    done
    if [[ -f "$json" ]]; then
      cat "$json" >> "$out"
      rm "$json"
    fi
  done
  if cmp -s "$tmp/$name.base" "$tmp/$name.change"; then
    echo "identical  $name"
  else
    echo "DIFFERS    $name"
    differ+=("$name")
  fi
done

echo "bench_diff: ${#bins[@]} binaries, base ${base_sha:0:12} vs working tree," \
  "${#differ[@]} differ${differ[*]:+: ${differ[*]}}"
((${#differ[@]} == 0))
