// Declarative entry point for the exp/ runners: resolve a ScenarioSpec into
// the runners' parameters and dispatch on the workload kind. Every runner
// takes the same resolved world (WorldBuilder's path configs, traces and
// connection template), so a spec and the equivalent hand-built parameters
// produce byte-identical output.
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
  SchedulerFactory scheduler_override;  // replaces spec.scheduler when set
  FlightRecorder* recorder = nullptr;
  // Kernel accounting out-param and progress heartbeat (sim/simulator.h);
  // forwarded to whichever runner the workload dispatches to. Telemetry
  // accumulates across a workload's repeated runs.
  RunTelemetry* telemetry = nullptr;
  HeartbeatConfig heartbeat;
};

// spec -> runner params: the common RunParams from WorldBuilder and `opts`,
// plus the workload's own fields. The workload kind must match the function
// (checked), and inputs a runner cannot honour are rejected naming their
// key; workload.runs rides along via run_scenario.
StreamingParams streaming_params_from_spec(const ScenarioSpec& spec,
                                           const ScenarioRunOptions& opts = {});
DownloadParams download_params_from_spec(const ScenarioSpec& spec,
                                         const ScenarioRunOptions& opts = {});
WebRunParams web_params_from_spec(const ScenarioSpec& spec, const ScenarioRunOptions& opts = {});

// Spec-accepting runner overloads. A single stream or download run ignores
// workload.runs (run_scenario repeats them); run_web is run_scenario's web
// slot, merged over workload.runs page loads.
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

// Runs the spec's workload.runs repetitions serially and folds them
// (streaming averaged, download per-run completions, web merged); a spec
// with a traffic block runs the traffic engine once. One of the thin calls
// of the repetition driver in exp/snapshot.cpp, defined there.
ScenarioOutcome run_scenario(const ScenarioSpec& spec, const ScenarioRunOptions& opts = {});

// Renders the outcome exactly as tools/mps_run prints it — shared so the
// golden-corpus test (tests/golden_test.cpp) locks the CLI's numbers
// byte-for-byte.
std::string format_outcome(const ScenarioSpec& spec, const ScenarioOutcome& out);

}  // namespace mps
