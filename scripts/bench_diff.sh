#!/usr/bin/env bash
# Output identity of the paper benches between a base revision and the
# working tree: a change that claims to leave every result alone must leave
# every printed figure byte-identical.
#
#   scripts/bench_diff.sh <base-rev> [section...]
#   scripts/bench_diff.sh HEAD~1
#   MPS_BENCH_SCALE=paper scripts/bench_diff.sh HEAD~1 \
#     bench_fig03_sndbuf_trace bench_fig11_12_cwnd_traces
#
# <base-rev> is checked out in a temporary shared clone (scripts/
# clone_base.sh, as bench_ab.sh does); both sides build Release into the
# same temporary directory, so nothing is written into the tree. paper_suite
# (every figure, table and ablation), bench_fairness and bench_crossproduct
# run on both sides with the temporary directory as their working
# directory, and the two stdouts are compared with cmp (plus
# bench_crossproduct's JSON); a nonzero exit is appended to the output it
# belongs to. MPS_BENCH_SCALE and MPS_BENCH_JOBS pass through to every run,
# so the scale is quick unless the caller sets it. Section names after
# <base-rev> are passed to paper_suite on both sides, and bench_fairness and
# bench_crossproduct are then skipped. A base from before paper_suite
# existed runs its per-figure binaries instead (only the named ones, when
# sections are given), in the order its bench/CMakeLists.txt declares them
# (the suite's table order), and their stdouts are concatenated.
# bench_speed, bench_scale and bench_micro_scheduler print timings and are
# skipped. Exits 1 naming each binary whose output differs (or that fails
# on either side).
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <base-rev> [section...]" >&2
  exit 2
fi

cd "$(dirname "$0")/.."
root="$(pwd)"
source scripts/clone_base.sh

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
base_sha="$(clone_base "$1" "$tmp/tree")"
shift
sections=("$@")

bins=(paper_suite bench_fairness bench_crossproduct)
((${#sections[@]} == 0)) || bins=(paper_suite)
# The targets and commands that stand for paper_suite on each side.
suite_base=(paper_suite)
if [[ ! -f "$tmp/tree/bench/paper_suite.cpp" ]]; then
  mapfile -t suite_base < <(sed -n 's/^mps_bench(\(bench_\(fig\|tab\|ablation\)[a-z0-9_]*\))$/\1/p' \
    "$tmp/tree/bench/CMakeLists.txt")
  if ((${#sections[@]} > 0)); then
    mapfile -t suite_base < <(printf '%s\n' "${suite_base[@]}" | grep -Fxf <(printf '%s\n' "${sections[@]}"))
  fi
fi

build() {  # <source-dir> <build-dir> <target>...
  local src="$1" dir="$2"
  shift 2
  cmake -S "$src" -B "$dir" -DCMAKE_BUILD_TYPE=Release > "$dir.log" 2>&1
  cmake --build "$dir" -j "$(nproc)" --target "$@" >> "$dir.log" 2>&1 ||
    { echo "bench_diff: build of $src failed, see:"; tail -n 20 "$dir.log"; exit 1; }
}
build "$tmp/tree" "$tmp/base" "${suite_base[@]}" "${bins[@]:1}"
build "$root" "$tmp/change" "${bins[@]}"

differ=()
mkdir -p "$tmp/run"
for name in "${bins[@]}"; do
  failed=0
  for side in base change; do
    out="$tmp/$name.$side"
    json="$tmp/run/$name.json"
    cmds=("$name")
    [[ "$name" == paper_suite && "$side" == base ]] && cmds=("${suite_base[@]}")
    args=()
    [[ "${cmds[0]:-}" == paper_suite ]] && args=("${sections[@]}")
    # bench_crossproduct also writes its JSON grid (and prints the path, so
    # both sides use the same one); it is compared along with stdout.
    [[ "$name" == bench_crossproduct ]] && args=("$json")
    : > "$out"
    for cmd in "${cmds[@]}"; do
      (cd "$tmp/run" && "$tmp/$side/bench/$cmd" "${args[@]}" >> "$out" 2> "$out.err") ||
        { echo "exit $? ($cmd)" >> "$out"; cat "$out.err" >&2; failed=1; }
    done
    if [[ -f "$json" ]]; then
      cat "$json" >> "$out"
      rm "$json"
    fi
  done
  if ((failed)); then
    echo "FAILS      $name"
    differ+=("$name")
  elif cmp -s "$tmp/$name.base" "$tmp/$name.change"; then
    echo "identical  $name"
  else
    echo "DIFFERS    $name"
    differ+=("$name")
  fi
done

echo "bench_diff: ${#bins[@]} binaries, base ${base_sha:0:12} vs working tree," \
  "${#differ[@]} differ or fail${differ[*]:+: ${differ[*]}}"
((${#differ[@]} == 0))
