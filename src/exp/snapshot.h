// Snapshot-and-fork: pause a running experiment at a simulation time and
// fork it into independent, bit-reproducible copies that share the computed
// prefix (DESIGN.md §13).
//
// Mechanism, shared by every Run class through the Run shell (exp/run.h;
// StreamingRun, DownloadRun, WebPageRun, and TrafficRun here), one pass over
// the source:
//  1. clone the source's FlightRecorder *first*, so the fork's construction
//     resolves instrument handles into the copied storage;
//  2. build the fork's world the normal way — construction is event-free by
//     design, which require_construction_event_free asserts — and copy the
//     source's world state into it, structure-cloning the event queue
//     (EventIds and ordering preserved, callbacks dropped);
//  3. build each per-flow object (connection, subflows, receivers, path
//     manager, HTTP exchange, traffic engine) as a twin of its source: the
//     twin constructor copies the state and rebinds the adopted events to
//     itself. Per-run parts (DASH session, bandwidth schedules, samplers)
//     are built fresh and restore_from their source;
//  4. undo construction-time instrument writes via restore_data_from;
//  5. check that construction scheduled nothing (the pending set is exactly
//     the source's) and, with require_fully_rebound, that no live event was
//     left without a callback — the mechanism that surfaces forgotten
//     capture sites.
//
// Forks are sequential-consistent: fork-then-finish produces output
// byte-identical to an unforked run, so a prefix shared by many sweep cells
// (same seed, divergent suffix) is simulated once.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/run.h"
#include "exp/scenario_run.h"
#include "exp/sweep.h"
#include "scenario/world.h"
#include "traffic/engine.h"

namespace mps {

// One competing-traffic run held as an object so it can be paused and forked
// (spec.traffic workloads). The engine's staged-driving API
// (TrafficEngine::start/finish/collect) does the work; done() turns true at
// finish().
class TrafficRun final : public RunShell {
 public:
  TrafficRun(const ScenarioSpec& spec, const ScenarioRunOptions& opts = {});
  ~TrafficRun() override;

  TrafficEngine& engine() { return *engine_; }

  std::unique_ptr<TrafficRun> fork() const;

  TrafficResult finish();

 private:
  TrafficRun(const TrafficRun& src, ForkTag);
  void construct(const ScenarioSpec& spec, const TrafficRun* src);  // src: the run a fork copies
  void begin() override;

  std::unique_ptr<WorldBuilder> builder_;
  std::unique_ptr<TrafficEngine> engine_;
};

// A traffic spec run to its end time: one TrafficRun started and finished.
// `recorder` is borrowed and wins over spec.record; `telemetry` (optional)
// accumulates the run's kernel accounting.
TrafficResult run_traffic(const ScenarioSpec& spec, FlightRecorder* recorder = nullptr,
                          RunTelemetry* telemetry = nullptr);

// run_scenario, but with a snapshot-and-fork inserted at origin +
// `snapshot_at_s` into every repetition: the original run is advanced to the
// snapshot point, forked, discarded, and the fork runs to completion. Output
// is byte-identical to run_scenario (same aggregation, same seed
// conventions); the golden-corpus fork tests pin this. Repetitions sweep in
// parallel per `sweep` (jobs=1 forced when opts.recorder is set — a shared
// recorder cannot take concurrent cells).
ScenarioOutcome run_scenario_forked(const ScenarioSpec& spec, double snapshot_at_s,
                                    const ScenarioRunOptions& opts = {},
                                    const SweepOptions& sweep = {});

// Same, but forks `k` sibling copies of every repetition at the snapshot
// point and finishes each: returns one outcome per fork index. All k
// outcomes must be identical (independent copies of the same state); the
// mps_run --fork=K check asserts exactly that. run_scenario_forked is the
// k=1 case.
std::vector<ScenarioOutcome> run_scenario_fork_k(const ScenarioSpec& spec,
                                                 double snapshot_at_s, int k,
                                                 const ScenarioRunOptions& opts = {},
                                                 const SweepOptions& sweep = {});

// What-if scheduler grid: for each repetition of the spec's workload, run
// the shared prefix to origin + `switch_at_s`, then diverge one branch per
// scheduler name (set_scheduler takes effect at the next pick) and run each
// branch to completion. Returns one aggregated outcome per scheduler, in
// order.
//
// share_prefix=true simulates each repetition's prefix once and forks K
// branches from it; false runs the full K×reps grid from scratch (each cell
// still switches scheduler at switch_at_s, so the two modes are
// byte-identical — the bench's prefix-dedupe speedup cell times both).
// Stream and download workloads only (single-connection; set_scheduler has a
// well-defined target).
std::vector<ScenarioOutcome> run_whatif_grid(const ScenarioSpec& spec,
                                             const std::vector<std::string>& schedulers,
                                             double switch_at_s, bool share_prefix,
                                             const ScenarioRunOptions& opts = {},
                                             const SweepOptions& sweep = {});

}  // namespace mps
