// Shared helpers for the per-figure bench binaries.
//
// Every binary prints: a header naming the paper artifact it regenerates,
// the scale note (MPS_BENCH_SCALE), and then the same rows/series the paper
// reports, via the trace/emit.h renderers.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "exp/download.h"
#include "exp/ideal.h"
#include "exp/scale.h"
#include "exp/scenario_run.h"
#include "exp/streaming.h"
#include "exp/sweep.h"
#include "exp/webrun.h"
#include "net/wild.h"
#include "obs/recorder.h"
#include "scenario/world.h"
#include "sched/registry.h"
#include "trace/emit.h"

namespace mps::bench {

// Bandwidth labels like "0.3" for the paper's grid values.
inline std::vector<std::string> grid_labels() {
  std::vector<std::string> out;
  for (double bw : paper_bandwidth_grid()) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%.1f", bw);
    out.emplace_back(buf);
  }
  return out;
}

inline std::string pair_label(double wifi, double lte) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f-%.1f", wifi, lte);
  return buf;
}

// Labels "1 - 1" .. "1 - 10" for the wget experiments.
inline std::vector<std::string> int_labels(int from, int to) {
  std::vector<std::string> out;
  for (int i = from; i <= to; ++i) out.push_back(std::to_string(i));
  return out;
}

// Flight-recorder end-of-run report under a labelled section header, after
// the figure output so existing figure sections stay byte-identical.
inline void print_recorder_summary(std::ostream& os, const std::string& label,
                                   const FlightRecorder& rec) {
  os << "\n--- flight recorder: " << label << " ---\n";
  rec.summarize(os);
}

// Per-cell state bundle for sweep workers. Everything a cell needs — scale
// parameters, RNG base seed, an optional flight recorder — is captured here
// on the main thread before a sweep fans out, so the cell helpers never
// reach for ambient globals from a worker thread. Defaults replicate the
// historical behavior (current MPS_BENCH_SCALE, seed 1, no recorder).
struct CellConfig {
  BenchScale scale = bench_scale();
  std::uint64_t seed = 1;
  bool collect_traces = false;
  bool idle_reset = true;
  // Borrowed, may be null; when set it must be exclusive to this cell for
  // the duration of the run (FlightRecorder is single-threaded).
  FlightRecorder* recorder = nullptr;
};

// Declarative cell description: every bench cell is a ScenarioSpec, executed
// through exp/scenario_run.h's spec->params conversion, so the bench cells
// and scenarios/*.json presets share one construction path (and stay
// byte-identical with the historical hand-wired parameters).
inline ScenarioSpec streaming_spec(double wifi, double lte, const std::string& sched,
                                   const CellConfig& cell = {}) {
  ScenarioSpec s;
  s.paths = {wifi_path(wifi), lte_path(lte)};
  s.scheduler = sched;
  s.workload.kind = WorkloadKind::kStream;
  s.workload.video_s = cell.scale.video.to_seconds();
  s.workload.runs = cell.scale.streaming_runs;
  s.seed = cell.seed;
  s.record.collect_traces = cell.collect_traces;
  s.conn.idle_cwnd_reset = cell.idle_reset;
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

inline ScenarioSpec web_spec(double wifi, double lte, const std::string& sched,
                             std::uint64_t seed, int runs) {
  ScenarioSpec s;
  s.paths = {wifi_path(wifi), lte_path(lte)};
  s.scheduler = sched;
  s.workload.kind = WorkloadKind::kWeb;
  s.workload.runs = runs;
  s.seed = seed;
  return s;
}

// Section 6 in-the-wild cell: profile paths with RTT/loss overrides and
// (for streaming) the profile's rate jitter, built from the profile's
// scalar nominals.
inline ScenarioSpec wild_spec(const WildRunProfile& profile, const std::string& sched,
                              bool jitter) {
  ScenarioSpec s;
  PathSpec wifi = wifi_path(profile.wifi_mbps);
  wifi.rtt_ms = profile.wifi_rtt_ms;
  wifi.loss_rate = profile.wifi_loss_rate;
  PathSpec lte = lte_path(profile.lte_mbps);
  lte.rtt_ms = profile.lte_rtt_ms;
  lte.loss_rate = profile.lte_loss_rate;
  if (jitter) {
    for (PathSpec* p : {&wifi, &lte}) {
      p->variation.kind = VariationKind::kJitter;
      p->variation.jitter_frac = profile.rate_jitter_frac;
      p->variation.jitter_interval_s = profile.jitter_interval_s;
    }
  }
  s.paths = {wifi, lte};
  s.scheduler = sched;
  return s;
}

// Streaming run with the cell's scale settings applied.
inline StreamingResult run_streaming_cell(double wifi, double lte, const std::string& sched,
                                          const CellConfig& cell = {}) {
  ScenarioRunOptions opts;
  opts.recorder = cell.recorder;
  return run_scenario(streaming_spec(wifi, lte, sched, cell), opts).streaming;
}

}  // namespace mps::bench
