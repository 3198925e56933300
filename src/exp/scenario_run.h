// Declarative entry point for the exp/ runners: resolve a ScenarioSpec into
// the runner parameter structs (bench-exact — same double literals, same RNG
// fork order as the hand-wired bench drivers) and dispatch on the workload
// kind. Every bench cell and the mps_run CLI go through these conversions,
// so a spec file and the equivalent hand-written parameters produce
// byte-identical output.
#pragma once

#include <string>

#include "exp/download.h"
#include "exp/streaming.h"
#include "exp/webrun.h"
#include "scenario/world.h"
#include "traffic/engine.h"

namespace mps {

// Per-run knobs that are code, not data: a custom scheduler factory (e.g.
// ECF with a non-default beta) and a caller-owned recorder (must outlive the
// run; when null, spec.record decides whether the run owns one).
struct ScenarioRunOptions {
  SchedulerFactory scheduler_override;  // streaming only
  FlightRecorder* recorder = nullptr;
  // Kernel accounting out-param and progress heartbeat (sim/simulator.h);
  // forwarded to whichever runner the workload dispatches to. Telemetry
  // accumulates across a workload's repeated runs.
  RunTelemetry* telemetry = nullptr;
  HeartbeatConfig heartbeat;
};

// spec -> runner params. The workload kind must match the function
// (checked); workload.runs rides along via run_scenario / the *_samples and
// *_avg helpers.
StreamingParams streaming_params_from_spec(const ScenarioSpec& spec,
                                           const ScenarioRunOptions& opts = {});
DownloadParams download_params_from_spec(const ScenarioSpec& spec);
WebRunParams web_params_from_spec(const ScenarioSpec& spec);

// Spec-accepting runner overloads (single streaming run ignores
// workload.runs; use run_scenario for the averaged form).
StreamingResult run_streaming(const ScenarioSpec& spec, const ScenarioRunOptions& opts = {});
DownloadResult run_download(const ScenarioSpec& spec);
WebRunResult run_web(const ScenarioSpec& spec);

// One result slot per workload kind; `kind` says which one is live. When the
// spec has a traffic block, `traffic` is live instead and `kind` is unused.
struct ScenarioOutcome {
  WorkloadKind kind = WorkloadKind::kStream;
  StreamingResult streaming;       // kStream: averaged over workload.runs
  Samples download_completions;    // kDownload: per-run completion seconds
  DownloadResult download;         // kDownload: last run's detail; capped: any run
  WebRunResult web;                // kWeb: merged over workload.runs
  TrafficResult traffic;           // spec.traffic.enabled: competing-traffic run

  // A run stopped at its runner's safety cap (only the live slot can be set;
  // format_outcome prints a `capped:` line then).
  bool capped() const { return streaming.capped || download.capped || web.capped; }
};

// Runs the spec's workload: streaming -> run_streaming_avg(workload.runs),
// download -> run_download_samples(workload.runs), web -> run_web. A spec
// with a traffic block dispatches to traffic/engine.h instead.
ScenarioOutcome run_scenario(const ScenarioSpec& spec, const ScenarioRunOptions& opts = {});

// Renders the outcome exactly as tools/mps_run prints it — shared so the
// golden-corpus test (tests/golden_test.cpp) locks the CLI's numbers
// byte-for-byte.
std::string format_outcome(const ScenarioSpec& spec, const ScenarioOutcome& out);

}  // namespace mps
