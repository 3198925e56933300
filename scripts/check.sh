#!/usr/bin/env bash
# Tier-1 check: configure, build, and run the unit/integration test suite.
# The default suite runs ctest twice: in ./build, and in a fresh git worktree
# of HEAD (only committed files).
#
#   scripts/check.sh               # RelWithDebInfo build + ctest + scenario smoke
#   scripts/check.sh --sanitize    # additionally run suite + smoke under ASan+UBSan
#   scripts/check.sh --tsan        # additionally run the sweep/kernel tests + smoke under TSan
#   scripts/check.sh --notrace     # additionally prove MPS_TRACE_EVENTS=OFF builds
#   scripts/check.sh --prof        # additionally run the full suite with -DMPS_PROF=ON
#   scripts/check.sh --scenarios   # only the scenario smoke (assumes ./build exists)
#   scripts/check.sh --stress      # only a full seeded stress sweep (assumes ./build)
#   scripts/check.sh --fairness    # only the fairness smoke (assumes ./build)
#   scripts/check.sh --scale       # only the 1k-flow scale smoke (assumes ./build)
#   scripts/check.sh --snapshot    # only the snapshot-and-fork smoke (assumes ./build)
#   scripts/check.sh --handover    # only the path-churn/handover smoke (assumes ./build)
#   scripts/check.sh --crossproduct # only the scheduler x CC grid smoke (assumes ./build)
#
# The default suite always includes a profiling smoke: a -DMPS_PROF=ON build
# runs its profiler unit tests and the full golden corpus (byte-identical
# with profiling compiled in), mps_run --prof-out must emit a report that
# mps_report --check accepts, and attaching --prof-out/--progress must not
# change mps_run's stdout.
#
# The default suite and the sanitizer suite both end with a bounded
# invariant-checked stress sweep (tools/mps_stress): every fault profile x
# scheduler x seed cell runs a download under check/invariants.h, and any
# violation or stall fails the script.
#
# Exits non-zero on the first failing step.
set -euo pipefail

cd "$(dirname "$0")/.."

run_suite() {
  local build_dir="$1"; shift
  local filter="$1"; shift
  cmake -S . -B "$build_dir" "$@" >/dev/null
  cmake --build "$build_dir" -j "$(nproc)"
  if [[ -n "$filter" ]]; then
    ctest --test-dir "$build_dir" --output-on-failure -R "$filter"
  else
    ctest --test-dir "$build_dir" --output-on-failure
  fi
}

# Clean-checkout suite: build and run ctest once more from a fresh
# `git worktree` of HEAD, so a test that passes only because of an untracked
# or ignored file in this checkout (a fixture swallowed by .gitignore) fails
# here. Uncommitted edits are not part of HEAD and are not tested by it.
run_clean_checkout_suite() {
  local tmp
  tmp="$(mktemp -d)"
  echo "clean-checkout suite: ctest in a git worktree of HEAD"
  trap 'git worktree remove --force "'"$tmp"'/tree" 2>/dev/null; rm -rf "'"$tmp"'"' EXIT
  git worktree add --detach "$tmp/tree" HEAD >/dev/null
  (cd "$tmp/tree" && run_suite build "" -DCMAKE_BUILD_TYPE=RelWithDebInfo)
  git worktree remove --force "$tmp/tree"
  rm -rf "$tmp"
  trap - EXIT
}

# Every checked-in preset must load and run end to end through mps_run.
# Durations are overridden down so the smoke stays fast at any scale.
run_scenarios_smoke() {
  local build_dir="$1"
  echo "scenario smoke ($build_dir):"
  local spec
  for spec in scenarios/*.json; do
    echo "  $spec"
    "$build_dir/tools/mps_run" "$spec" \
      --set workload.video_s=5 --set workload.bytes=65536 --set workload.runs=1
  done
}

# Competing-traffic smoke: the bench_fairness grid must be bit-identical
# serial vs parallel (the churn engine's core determinism contract), and the
# contended-bottleneck preset must run end to end.
run_fairness_smoke() {
  local build_dir="$1"
  echo "fairness smoke ($build_dir): bench_fairness jobs=1 vs jobs=4"
  cmake --build "$build_dir" -j "$(nproc)" --target bench_fairness mps_run
  local serial parallel
  serial="$(MPS_BENCH_SCALE=quick MPS_BENCH_JOBS=1 "$build_dir/bench/bench_fairness")"
  parallel="$(MPS_BENCH_SCALE=quick MPS_BENCH_JOBS=4 "$build_dir/bench/bench_fairness")"
  if [[ "$serial" != "$parallel" ]]; then
    echo "bench_fairness: jobs=1 vs jobs=4 outputs differ" >&2
    diff <(printf '%s\n' "$serial") <(printf '%s\n' "$parallel") >&2 || true
    return 1
  fi
  echo "  scenarios/contended_bottleneck.json"
  "$build_dir/tools/mps_run" scenarios/contended_bottleneck.json >/dev/null
}

# Profiling smoke: prove the observability layer cannot perturb a run. The
# -DMPS_PROF=ON build must keep the golden corpus byte-identical, mps_run
# --prof-out must emit a report mps_report --check accepts, and attaching
# --prof-out/--progress must leave mps_run's stdout unchanged.
run_prof_smoke() {
  local build_dir="$1"
  echo "prof smoke ($build_dir): goldens + mps_run --prof-out + mps_report --check"
  cmake -S . -B "$build_dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMPS_PROF=ON >/dev/null
  cmake --build "$build_dir" -j "$(nproc)" --target prof_test golden_test mps_run mps_report
  ctest --test-dir "$build_dir" --output-on-failure -R "Prof|ProfileReport|SweepTelemetry|Determinism|GoldenCorpus"
  local tmp bare observed
  tmp="$(mktemp -d)"
  bare="$("$build_dir/tools/mps_run" scenarios/contended_bottleneck.json)"
  observed="$("$build_dir/tools/mps_run" scenarios/contended_bottleneck.json \
    --prof-out "$tmp/prof.json" --progress=0.001 2>/dev/null)"
  if [[ "$bare" != "$observed" ]]; then
    echo "mps_run: --prof-out/--progress changed the run output" >&2
    diff <(printf '%s\n' "$bare") <(printf '%s\n' "$observed") >&2 || true
    rm -rf "$tmp"
    return 1
  fi
  "$build_dir/tools/mps_report" "$tmp/prof.json" --check
  "$build_dir/tools/mps_report" "$tmp/prof.json" >/dev/null
  rm -rf "$tmp"
}

# Scale smoke: a 1k-concurrent-flow traffic cell runs end to end with every
# live connection under the invariant checker (bench_scale --smoke). Guards
# the arena/ring/timer-wheel scale machinery in every suite it runs in.
run_scale_smoke() {
  local build_dir="$1"
  echo "scale smoke ($build_dir): bench_scale --smoke"
  cmake --build "$build_dir" -j "$(nproc)" --target bench_scale
  "$build_dir/bench/bench_scale" --smoke
}

# Snapshot-and-fork smoke: every preset run through mps_run with a mid-run
# snapshot + 2-way fork must print output byte-identical to the plain run
# (exp/snapshot.h's sequential-consistency contract), and mps_run's own
# fork-check must pass. Durations are overridden down like the scenario
# smoke so this stays fast at any scale.
run_snapshot_smoke() {
  local build_dir="$1"
  echo "snapshot smoke ($build_dir): mps_run --snapshot-at=0.5 --fork=2 vs plain"
  cmake --build "$build_dir" -j "$(nproc)" --target mps_run
  local spec plain forked
  for spec in scenarios/*.json; do
    echo "  $spec"
    plain="$("$build_dir/tools/mps_run" "$spec" \
      --set workload.video_s=5 --set workload.bytes=65536 --set workload.runs=1)"
    forked="$("$build_dir/tools/mps_run" "$spec" \
      --set workload.video_s=5 --set workload.bytes=65536 --set workload.runs=1 \
      --snapshot-at=0.5 --fork=2)"
    if [[ "$plain" != "$forked" ]]; then
      echo "mps_run: snapshot+fork changed the output for $spec" >&2
      diff <(printf '%s\n' "$plain") <(printf '%s\n' "$forked") >&2 || true
      return 1
    fi
  done
}

# Handover smoke: dynamic path management end to end. The commuter preset
# (mid-connection subflow churn) must run, snapshot+fork straddling the
# handover window must stay byte-identical to the plain run, the other two
# churn presets must load and run, and the seeded "handover" stress profile
# (every scheduler x seed under the invariant checker while both paths are
# torn down and re-joined) must pass.
run_handover_smoke() {
  local build_dir="$1"
  echo "handover smoke ($build_dir): churn presets + fork-at-handover + stress profile"
  cmake --build "$build_dir" -j "$(nproc)" --target mps_run mps_stress
  local plain forked
  plain="$("$build_dir/tools/mps_run" scenarios/handover_commuter.json \
    --set workload.video_s=5)"
  forked="$("$build_dir/tools/mps_run" scenarios/handover_commuter.json \
    --set workload.video_s=5 --snapshot-at=0.1 --fork=2)"
  if [[ "$plain" != "$forked" ]]; then
    echo "mps_run: snapshot+fork changed the handover_commuter output" >&2
    diff <(printf '%s\n' "$plain") <(printf '%s\n' "$forked") >&2 || true
    return 1
  fi
  "$build_dir/tools/mps_run" scenarios/backup_promotion.json \
    --set workload.bytes=65536 >/dev/null
  "$build_dir/tools/mps_run" scenarios/correlated_loss_pair.json \
    --set workload.video_s=5 >/dev/null
  "$build_dir/tools/mps_stress" --seeds 2 --profiles handover
}

# Cross-product smoke: the scheduler x CC grid must be bit-identical
# serial vs parallel (stdout and the BENCH_crossproduct.json artifact), the
# two pinned cross-product presets must run end to end, and a bounded
# scheduler x CC slice of the "crossproduct" stress profile must pass under
# the invariant checker (including the coupled-terms recompute check).
run_crossproduct_smoke() {
  local build_dir="$1"
  echo "crossproduct smoke ($build_dir): bench_crossproduct jobs=1 vs jobs=4 + stress profile"
  cmake --build "$build_dir" -j "$(nproc)" --target bench_crossproduct mps_run mps_stress
  local tmp
  tmp="$(mktemp -d)"
  local serial parallel
  serial="$(MPS_BENCH_SCALE=quick MPS_BENCH_JOBS=1 \
    "$build_dir/bench/bench_crossproduct" "$tmp/serial.json")"
  parallel="$(MPS_BENCH_SCALE=quick MPS_BENCH_JOBS=4 \
    "$build_dir/bench/bench_crossproduct" "$tmp/parallel.json")"
  if [[ "${serial%wrote *}" != "${parallel%wrote *}" ]]; then
    echo "bench_crossproduct: jobs=1 vs jobs=4 outputs differ" >&2
    diff <(printf '%s\n' "$serial") <(printf '%s\n' "$parallel") >&2 || true
    rm -rf "$tmp"
    return 1
  fi
  if ! diff "$tmp/serial.json" "$tmp/parallel.json"; then
    echo "bench_crossproduct: jobs=1 vs jobs=4 JSON artifacts differ" >&2
    rm -rf "$tmp"
    return 1
  fi
  rm -rf "$tmp"
  echo "  scenarios/crossproduct_qaware_balia.json"
  "$build_dir/tools/mps_run" scenarios/crossproduct_qaware_balia.json \
    --set workload.bytes=65536 --set workload.runs=1 >/dev/null
  echo "  scenarios/oco_correlated_loss.json"
  "$build_dir/tools/mps_run" scenarios/oco_correlated_loss.json \
    --set workload.bytes=65536 --set workload.runs=1 >/dev/null
  "$build_dir/tools/mps_stress" --profiles crossproduct \
    --schedulers default,ecf,qaware,oco --ccs reno,cubic,lia,olia,balia --seeds 1
}

# Seeded stress sweep under the invariant checker. Cell counts are chosen
# for bounded runtime: the quick pass (2 seeds, 72 cells) rides along with
# every default run; the sanitizer pass uses 6 seeds (216 cells) so the
# ASan-clean >= 200-cell bar is part of CI, not a manual step.
run_stress_sweep() {
  local build_dir="$1"; shift
  echo "stress sweep ($build_dir): mps_stress $*"
  cmake --build "$build_dir" -j "$(nproc)" --target mps_stress
  "$build_dir/tools/mps_stress" "$@"
}

sanitize=0
tsan=0
notrace=0
prof=0
scenarios_only=0
stress_only=0
fairness_only=0
scale_only=0
snapshot_only=0
handover_only=0
crossproduct_only=0
for arg in "$@"; do
  case "$arg" in
    --sanitize) sanitize=1 ;;
    --tsan) tsan=1 ;;
    --notrace) notrace=1 ;;
    --prof) prof=1 ;;
    --scenarios) scenarios_only=1 ;;
    --stress) stress_only=1 ;;
    --fairness) fairness_only=1 ;;
    --scale) scale_only=1 ;;
    --snapshot) snapshot_only=1 ;;
    --handover) handover_only=1 ;;
    --crossproduct) crossproduct_only=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

if [[ "$scenarios_only" == 1 ]]; then
  run_scenarios_smoke build
  echo "check.sh: scenario smoke passed"
  exit 0
fi

if [[ "$stress_only" == 1 ]]; then
  run_stress_sweep build --seeds 8
  echo "check.sh: stress sweep passed"
  exit 0
fi

if [[ "$fairness_only" == 1 ]]; then
  run_fairness_smoke build
  echo "check.sh: fairness smoke passed"
  exit 0
fi

if [[ "$scale_only" == 1 ]]; then
  run_scale_smoke build
  echo "check.sh: scale smoke passed"
  exit 0
fi

if [[ "$snapshot_only" == 1 ]]; then
  run_snapshot_smoke build
  echo "check.sh: snapshot smoke passed"
  exit 0
fi

if [[ "$handover_only" == 1 ]]; then
  run_handover_smoke build
  echo "check.sh: handover smoke passed"
  exit 0
fi

if [[ "$crossproduct_only" == 1 ]]; then
  run_crossproduct_smoke build
  echo "check.sh: crossproduct smoke passed"
  exit 0
fi

run_suite build "" -DCMAKE_BUILD_TYPE=RelWithDebInfo
run_clean_checkout_suite
run_scenarios_smoke build
run_snapshot_smoke build
run_handover_smoke build
run_crossproduct_smoke build
run_stress_sweep build --seeds 2
run_fairness_smoke build
run_scale_smoke build
run_prof_smoke build-prof

if [[ "$sanitize" == 1 ]]; then
  run_suite build-sanitize "" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMPS_SANITIZE=address
  run_scenarios_smoke build-sanitize
  run_snapshot_smoke build-sanitize
  run_handover_smoke build-sanitize
  run_crossproduct_smoke build-sanitize
  run_stress_sweep build-sanitize --seeds 6
  run_scale_smoke build-sanitize
fi

if [[ "$tsan" == 1 ]]; then
  # The thread pool and everything it runs, vetted under ThreadSanitizer:
  # sweep-runner tests (parallel determinism) plus the event-kernel and
  # callback-storage tests.
  run_suite build-tsan "Sweep|EventQueue|Simulator|Timer|Callback" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMPS_SANITIZE=thread
  run_scenarios_smoke build-tsan
  run_snapshot_smoke build-tsan
  run_handover_smoke build-tsan
  run_crossproduct_smoke build-tsan
fi

if [[ "$notrace" == 1 ]]; then
  run_suite build-notrace "" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMPS_TRACE_EVENTS=OFF
fi

if [[ "$prof" == 1 ]]; then
  # Full suite with the profiler compiled in (the default run already did the
  # targeted prof smoke); proves no test depends on MPS_PROF being off.
  run_suite build-prof "" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMPS_PROF=ON
  run_scenarios_smoke build-prof
fi

echo "check.sh: all requested suites passed"
