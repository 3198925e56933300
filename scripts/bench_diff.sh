#!/usr/bin/env bash
# Output identity of the paper bench binaries between a base revision and
# the working tree: a change that claims to leave every result alone must
# leave every figure's printed output byte-identical.
#
#   scripts/bench_diff.sh <base-rev>
#   scripts/bench_diff.sh HEAD~1
#
# <base-rev> is checked out in a temporary shared clone (scripts/
# clone_base.sh, as bench_ab.sh does); both sides build Release into the
# same temporary directory, so nothing is written into the tree. Every
# figure, table, ablation, cross-product and fairness binary runs at quick
# scale (MPS_BENCH_SCALE unset) on both sides with the temporary directory
# as its working directory, and the two stdouts are compared with cmp.
# bench_speed and bench_scale print wall-clock rates and
# bench_micro_scheduler prints google-benchmark timings, so those three are
# skipped. Exits 1 naming each binary whose output differs (or that fails
# on either side).
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

bins=()
for src in bench/bench_*.cpp; do
  name="$(basename "$src" .cpp)"
  case "$name" in
    bench_speed | bench_scale | bench_micro_scheduler) ;;
    *) bins+=("$name") ;;
  esac
done

build() {  # <source-dir> <build-dir>
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release > "$2.log" 2>&1
  cmake --build "$2" -j "$(nproc)" --target "${bins[@]}" >> "$2.log" 2>&1 ||
    { echo "bench_diff: build of $1 failed, see:"; tail -n 20 "$2.log"; exit 1; }
}
build "$tmp/tree" "$tmp/base"
build "$root" "$tmp/change"

differ=()
mkdir -p "$tmp/run"
for name in "${bins[@]}"; do
  for side in base change; do
    out="$tmp/$name.$side"
    json="$tmp/run/$name.json"
    args=()
    # bench_crossproduct also writes its JSON grid (and prints the path, so
    # both sides use the same one); it is compared along with stdout.
    [[ "$name" == bench_crossproduct ]] && args=("$json")
    (cd "$tmp/run" && "$tmp/$side/bench/$name" "${args[@]}" > "$out" 2>&1) ||
      echo "exit $?" >> "$out"
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
