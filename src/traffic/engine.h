// TrafficEngine: the competing-traffic workload — N concurrent MPTCP flows
// sharing the world's bottleneck links, with deterministic Poisson
// connection churn and single-path TCP cross traffic.
//
// Determinism contract (the reason serial == parallel stays bit-exact):
// every random quantity is pre-drawn before the simulation starts, from a
// fixed fork tree. The engine forks one master RNG from the world's RNG at
// run() time; the master's first fork drives the Poisson arrival process,
// then each planned flow gets its own fork, in plan order (initial MPTCP
// flows, churn arrivals, cross groups). A flow's size is the only draw made
// from its fork today; cross flows draw nothing but still own a fork so
// future per-flow randomness cannot shift any other flow's stream.
//
// Lifecycle: each flow is a Connection registered with the per-link Mux (and
// the flight recorder, when one is attached). Sized MPTCP flows run an
// HttpExchange GET and are destroyed via a deferred post when the response
// completes; packets still in flight for a destroyed conn_id are counted by
// the Mux orphan counters — the RST-less teardown the churn property tests
// pin down. Cross flows are bulk senders pinned to one path; they never
// complete and are torn down at the end of the run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "scenario/spec.h"
#include "scenario/world.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace mps {

class HttpExchange;

struct TrafficFlowRecord {
  std::uint32_t conn_id = 0;
  bool cross = false;
  std::int64_t cross_path = -1;  // path index for cross flows
  std::uint64_t bytes = 0;       // requested size; 0 for open-ended cross flows
  double arrival_s = 0.0;        // relative to the start of the run
  bool started = false;
  bool completed = false;
  double completion_s = 0.0;     // flow completion time (FCT), when completed
  std::uint64_t delivered = 0;   // in-order bytes the app received
  std::uint64_t retransmits = 0;
  std::uint64_t rto_events = 0;
  // delivered over [arrival, completion] (or the end of the run).
  double goodput_mbps = 0.0;
};

struct TrafficResult {
  std::vector<TrafficFlowRecord> flows;  // plan order
  std::size_t started = 0;    // flows that began sending
  std::size_t completed = 0;  // sized MPTCP flows that finished
  std::size_t churned = 0;    // Poisson arrivals planned
  double duration_s = 0.0;
  double aggregate_goodput_mbps = 0.0;  // all delivered bytes over the run
  double mptcp_goodput_mbps = 0.0;
  double cross_goodput_mbps = 0.0;
  double capacity_mbps = 0.0;  // sum of nominal downlink rates (spec literals)
  double utilization = 0.0;    // aggregate_goodput / capacity
  double jain = 1.0;           // Jain's index over started MPTCP flows
  Samples completion_s;        // FCT samples of completed MPTCP flows
  std::uint64_t orphans = 0;   // down + up mux orphan packets
};

class TrafficEngine {
 public:
  // `world` must have been built from `spec` (paths resolved, seed applied);
  // the engine reads spec.traffic and spec.scheduler.
  TrafficEngine(World& world, const ScenarioSpec& spec);
  ~TrafficEngine();

  TrafficEngine(const TrafficEngine&) = delete;
  TrafficEngine& operator=(const TrafficEngine&) = delete;

  // Fired right after a flow's connection is created / just before it is
  // destroyed. The stress harness uses these to watch/unwatch the
  // InvariantChecker (which holds raw Connection pointers).
  std::function<void(Connection&)> on_flow_start;
  std::function<void(Connection&)> on_flow_end;

  // Optional periodic callback while the run advances (e.g. check_now
  // slices for trace-disabled builds). 0 = off.
  double tick_s = 0.0;
  std::function<void()> on_tick;

  // Kernel accounting out-param and progress heartbeat (sim/simulator.h);
  // both borrowed, both optional. run() attaches the heartbeat for the
  // duration of the simulation and adds this run's events into telemetry.
  RunTelemetry* telemetry = nullptr;
  const HeartbeatConfig* heartbeat = nullptr;

  // Plans the flow population, runs the simulation for traffic.duration_s,
  // tears everything down, and reports. Call once.
  TrafficResult run();

  // --- staged driving (exp/snapshot.h) --------------------------------------
  // run() is start() + run_until(end_time()) + finish() + collect(), split so
  // a run can be paused at a snapshot point and forked. Set tick_s/on_tick/
  // telemetry/heartbeat before start().
  void start();                 // plan + schedule arrivals and ticks
  TimePoint end_time() const { return end_; }
  void finish();                // tear down surviving flows
  TrafficResult collect() const;

  // Copies flow records and rebuilds the live connections/exchanges from
  // `src` (same spec, over a world already restored from src's): twin
  // connections are minted under the source conn_ids, pending arrival /
  // teardown / tick events are adopted by EventId and rebound to this
  // engine. on_flow_start/on_flow_end fire for live flows so watchers can
  // re-attach.
  void restore_from(const TrafficEngine& src);

 private:
  struct Flow;

  void start_flow(std::size_t idx);
  void finish_flow(std::size_t idx, double fct_s);
  void end_flow(std::size_t idx);  // record stats, fire hook, destroy
  void schedule_tick(TimePoint at, TimePoint end);
  void install_done(std::size_t idx);  // http completion -> finish_flow
  void resolve_schedulers();           // once per run, not per flow start

  World& world_;
  const ScenarioSpec& spec_;
  SchedulerFactory flow_scheduler_;   // spec.scheduler, for the MPTCP flows
  SchedulerFactory cross_scheduler_;  // "default", for single-path cross flows
  TimePoint base_;
  TimePoint end_;
  // Plan order; reserved once per run, and closures refer to flows by index.
  std::vector<Flow> flows_;
  std::size_t active_ = 0;
  std::size_t churned_ = 0;
  bool ran_ = false;
  // Pending on_tick chain event (0 = none), with the arguments of the
  // schedule_tick call that created it so a fork can rebind it.
  EventId tick_event_ = 0;
  TimePoint tick_at_;
  TimePoint tick_end_;

  // Aggregate instruments (no-ops when the world has no recorder).
  Counter flows_started_;
  Counter flows_completed_;
  Gauge active_flows_;
  Histogram completion_hist_;
  Histogram goodput_hist_;
};

// Convenience driver: builds the world from the spec (via WorldBuilder) and
// runs the engine. `recorder` is borrowed and wins over spec.record;
// `telemetry`/`heartbeat` are forwarded to the engine (both optional).
TrafficResult run_traffic(const ScenarioSpec& spec, FlightRecorder* recorder = nullptr,
                          RunTelemetry* telemetry = nullptr,
                          const HeartbeatConfig* heartbeat = nullptr);

// One bench_fairness grid cell, shared by the bench, the determinism tests,
// and the stress churn profile: `flows` competing MPTCP flows on the
// wifi(8)/lte(10) testbed, Poisson churn at flows/4 per second, exponential
// flow sizes, and one single-path cross flow on the LTE bottleneck.
ScenarioSpec fairness_cell_spec(const std::string& scheduler, int flows, double duration_s,
                                std::int64_t flow_bytes, std::uint64_t seed = 7);

}  // namespace mps
