// Shared helpers for the bench binaries (paper_suite and the standalone
// benches). Every section prints: a header naming the paper artifact it
// regenerates, the scale note (MPS_BENCH_SCALE), and then the same
// rows/series the paper reports, via the bench/emit.h renderers.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "exp/download.h"
#include "exp/ideal.h"
#include "bench/scale.h"
#include "exp/scenario_run.h"
#include "exp/streaming.h"
#include "exp/sweep.h"
#include "exp/webrun.h"
#include "net/wild.h"
#include "obs/recorder.h"
#include "scenario/world.h"
#include "sched/registry.h"
#include "bench/emit.h"

namespace mps::bench {

inline std::string pair_label(double wifi, double lte) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f-%.1f", wifi, lte);
  return buf;
}

// Declarative cell description: every bench cell is a ScenarioSpec, executed
// through exp/scenario_run.h's spec->params conversion, so the bench cells
// and scenarios/*.json presets share one construction path (and stay
// byte-identical with the historical hand-wired parameters). Streaming cells
// take the current MPS_BENCH_SCALE's video length and repetitions.
inline ScenarioSpec streaming_spec(double wifi, double lte, const std::string& sched) {
  ScenarioSpec s;
  s.paths = {wifi_path(wifi), lte_path(lte)};
  s.scheduler = sched;
  s.workload.kind = WorkloadKind::kStream;
  s.workload.video_s = bench_scale().video.to_seconds();
  s.workload.runs = bench_scale().streaming_runs;
  return s;
}

inline ScenarioSpec download_spec(double wifi, double lte, const std::string& sched,
                                  std::uint64_t bytes, std::uint64_t seed, int runs) {
  ScenarioSpec s;
  s.paths = {wifi_path(wifi), lte_path(lte)};
  s.scheduler = sched;
  s.workload.kind = WorkloadKind::kDownload;
  s.workload.bytes = static_cast<std::int64_t>(bytes);
  s.workload.runs = runs;
  s.seed = seed;
  return s;
}

}  // namespace mps::bench
