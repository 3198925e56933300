// The Run shell every experiment runner shares (StreamingRun, DownloadRun,
// WebPageRun, TrafficRun): one World, a safety cap or end time, the
// start/run_to/finish staging, and the fork steps of exp/snapshot.h. Each
// subclass adds only its workload objects, how a fork builds their twins,
// and its finish().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "mptcp/path_manager.h"
#include "mptcp/scheduler.h"
#include "net/path.h"
#include "net/varbw.h"
#include "sched/registry.h"
#include "sim/simulator.h"

namespace mps {

class FlightRecorder;
class HttpExchange;
class World;

// The fields every runner takes. The spec-driven path fills them from
// WorldBuilder (exp/scenario_run.h): resolved paths and traces, the
// connection template and the spec's scheduler; each workload's Params adds
// only its own fields.
struct RunParams {
  // Index 0 is the primary (request) path.
  std::vector<PathConfig> paths;
  // One bandwidth trace per path, offsets from t = 0; empty (or an empty
  // entry) = constant rate.
  std::vector<std::vector<RateChange>> traces;
  int subflows_per_path = 1;
  ConnectionConfig conn;  // template; conn_id is assigned per connection
  SchedulerFactory scheduler = scheduler_factory("default");
  std::uint64_t seed = 1;
  // When non-empty, a connection starts with one subflow per listed path
  // index; backup paths join only on promotion.
  std::vector<std::size_t> initial_paths;
  // Dynamic path management for single-connection runs; off when unset.
  std::optional<PathManagerConfig> path_manager;
  // Flight recorder (borrowed; must outlive the run), kernel accounting
  // out-param and progress heartbeat (sim/simulator.h); all optional.
  FlightRecorder* recorder = nullptr;
  RunTelemetry* telemetry = nullptr;
  HeartbeatConfig heartbeat;
};

class RunShell {
 public:
  virtual ~RunShell();
  RunShell(const RunShell&) = delete;
  RunShell& operator=(const RunShell&) = delete;

  // Starts the workload and attaches the heartbeat. Call once, before
  // run_to()/finish().
  void start();
  // Advances to absolute time `t`, clamped to the run's cap or end time;
  // no-op once the run is done.
  void run_to(TimePoint t);
  bool done() const { return done_; }
  Simulator& sim();
  World& world() { return *world_; }
  FlightRecorder* recorder() const { return rec_; }

  // What-if divergence: replaces the connection's scheduler (takes effect at
  // the next pick). Throws for runs without a single connection.
  void set_scheduler(const SchedulerFactory& factory);

 protected:
  struct ForkTag {};
  // Single-connection runs (stream, download) make these public.
  Connection& connection() { return *conn_; }
  PathManager* path_manager() { return pm_.get(); }  // null unless configured

  RunShell(FlightRecorder* recorder, RunTelemetry* telemetry, HeartbeatConfig heartbeat);
  // Fork prologue: the fork owns a private clone of the source's recorder,
  // made before construction so the fork's instrument handles resolve into
  // the copied storage index-for-index.
  RunShell(const RunShell& src, ForkTag);

  void own_recorder();
  // The world from the common fields; the fast path is the highest initial
  // downlink rate, ties going to the lower index. Throws
  // std::invalid_argument without paths or with more traces than paths. In a
  // fork (`src` set), the twin of src's world, wired to this run's recorder:
  // the fork's first step, before any other twin.
  void build_world(const RunParams& p, const RunShell* src = nullptr);
  // A connection over the world honouring p.initial_paths.
  std::unique_ptr<Connection> make_connection(const RunParams& p);
  // The twin in this world of `src`, a connection of `src_run`'s world, with
  // a fresh `scheduler` restored from src's.
  std::unique_ptr<Connection> twin_connection(const Connection& src, const RunShell& src_run,
                                              const SchedulerFactory& scheduler);
  // Single-connection runs: the connection, its optional path manager and
  // the HTTP exchange over it — in a fork (`src` set), twins of src's.
  void build_connection(const RunParams& p, const RunShell* src = nullptr);
  // One bandwidth schedule per traced path, started — or in a fork, the
  // twins of src's.
  void build_traces(const RunParams& p, const RunShell* src = nullptr);

  // The fork epilogue, once every workload object is a twin of src's: copies
  // the shell's flags, re-attaches the heartbeat, and checks that twin
  // construction scheduled nothing (the pending count is the source's) and
  // that every pending event was rebound. `who` names the fork in errors.
  void adopt(const RunShell& src, const char* who);

  // Teardown, first thing in each Run's destructor: drops the world's pending
  // events in one pass so the workload objects' destructors cancel nothing.
  void discard_events();

  // The finish prologue: runs to the cap or end unless done, detaches the
  // heartbeat and adds this run's kernel accounting to the telemetry.
  void settle();

  // The workload's own start (start() attaches the path manager and the
  // heartbeat around it).
  virtual void begin() = 0;

  std::unique_ptr<FlightRecorder> owned_rec_;
  FlightRecorder* rec_ = nullptr;
  RunTelemetry* telemetry_ = nullptr;
  HeartbeatConfig heartbeat_;
  std::unique_ptr<World> world_;
  std::unique_ptr<Connection> conn_;
  std::unique_ptr<PathManager> pm_;
  std::unique_ptr<HttpExchange> http_;
  std::vector<std::unique_ptr<BandwidthSchedule>> schedules_;
  // Makes conn_'s scheduler: the params' until set_scheduler switches it, so
  // a fork of a switched run rebuilds the switched type.
  SchedulerFactory scheduler_;
  TimePoint end_;   // safety cap (traffic: the engine's end time)
  TimePoint base_;  // sim time and events processed at start()
  std::uint64_t events_before_ = 0;
  std::size_t fast_path_ = 0;
  bool started_ = false;
  bool done_ = false;
};

}  // namespace mps
