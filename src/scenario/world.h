// World: the generic N-path testbed a scenario runs in, and WorldBuilder,
// which resolves a ScenarioSpec into low-level configs and constructs the
// world. Every runner (exp/run.h) and test builds its testbed here.
//
// Construction order is a compatibility contract: recorder attached first,
// then paths built in order, then one downlink RNG fork per path in order,
// then the demux attached to every downlink and then every uplink. It fixes
// the RNG stream assignment and event creation order, so results stay
// bit-identical across the runners built on it.
//
// Ownership: a borrowed FlightRecorder must outlive the World (the simulator
// and every instrumented model object hold pointers into it). WorldBuilder
// removes that footgun for spec-driven runs by owning a recorder when the
// spec requests recording and the caller does not supply one.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mptcp/connection.h"
#include "mptcp/path_manager.h"
#include "net/mux.h"
#include "net/path.h"
#include "net/varbw.h"
#include "scenario/spec.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace mps {

struct WorldConfig {
  // Paths in construction order. Index 0 is the primary (request) path.
  std::vector<PathConfig> paths;
  int subflows_per_path = 1;
  ConnectionConfig conn;  // template; conn_id is assigned per connection
  std::uint64_t seed = 1;
  // Borrowed; must outlive the World. Attached to the simulator before the
  // paths are built so link/subflow/connection instruments all register.
  FlightRecorder* recorder = nullptr;
};

class World {
 public:
  explicit World(WorldConfig config);
  // Snapshot-and-fork (exp/snapshot.h): the twin of `src` with the fork's
  // `recorder` (a clone of src's, or null) in place of src's. Twins src's
  // simulator (clock, queue structure with every callback unbound) and
  // paths, copies the world RNG and the next conn_id, sizes the muxes like
  // src's and attaches them in the fresh constructor's order. Connection
  // twins built afterwards rebind their own events.
  World(const World& src, FlightRecorder* recorder);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  const WorldConfig& config() const { return config_; }
  Simulator& sim() { return sim_; }
  Path& path(std::size_t i) { return *paths_[i]; }
  std::size_t path_count() const { return paths_.size(); }
  Rng& rng() { return rng_; }
  Mux& down_mux() { return down_mux_; }
  Mux& up_mux() { return up_mux_; }

  // Builds a connection over [path0 x subflows_per_path, path1 x ..., ...]
  // with path 0 primary and a fresh conn_id.
  std::unique_ptr<Connection> make_connection(const SchedulerFactory& scheduler);

  // Builds a connection restricted to the given paths (one subflow each;
  // the first index is primary). A single index yields plain single-path
  // TCP over the existing subflow machinery — used for cross traffic.
  std::unique_ptr<Connection> make_connection_on(const std::vector<std::size_t>& path_indices,
                                                 const SchedulerFactory& scheduler);

  // One-way latency of a GET from client to server on the primary path.
  Duration request_delay() const { return paths_[0]->rtt_base() / 2; }

  void run_for(Duration d) { sim_.run_until(sim_.now() + d); }

  // --- snapshot-and-fork support (exp/snapshot.h) ---------------------------
  // Where twins of `src`'s connections live in this world: its simulator and
  // muxes, and each of src's paths paired with this world's path at the
  // same index.
  TwinWorld twin_world(const World& src);

 private:
  // Attaches the muxes and builds the connection path list, in the order
  // the header's compatibility contract fixes.
  void wire_paths();

  WorldConfig config_;
  Simulator sim_;
  Rng rng_;
  std::vector<std::unique_ptr<Path>> paths_;
  Mux down_mux_;  // attached to every downlink (client side)
  Mux up_mux_;    // attached to every uplink (server side)
  // make_connection's subflow path list, built once: [path0 x
  // subflows_per_path, path1 x ..., ...].
  std::vector<Path*> conn_paths_;
  std::uint32_t next_conn_id_ = 1;
};

// Resolves a ScenarioSpec into simulator-level configuration and builds
// Worlds from it. Resolution is deterministic and bench-exact:
//  * PathSpec -> PathConfig goes through wifi_profile()/lte_profile() for
//    profile paths, then applies overrides, so a path that sets only the
//    rate is field-equal to its profile at that rate;
//  * generated bandwidth traces (kRandom/kJitter) fork one RNG per varied
//    path, in path order, from Rng(spec.trace_seed); a kRandom path's
//    initial rate becomes its trace's first level (Section 5.3 semantics);
//  * trace durations derive from the workload (video length, or the
//    download/web run caps).
class WorldBuilder {
 public:
  explicit WorldBuilder(ScenarioSpec spec);
  ~WorldBuilder();  // out of line: owns a FlightRecorder, fwd-declared here

  const ScenarioSpec& spec() const { return spec_; }
  const std::vector<PathConfig>& path_configs() const { return paths_; }
  // Per-path bandwidth trace; empty vector = constant rate.
  const std::vector<std::vector<RateChange>>& path_traces() const { return traces_; }

  // Connection template with the spec's conn knobs applied.
  ConnectionConfig conn_config() const;
  WorldConfig world_config(FlightRecorder* recorder = nullptr) const;

  // Constructs the world. `recorder` (borrowed, may be null) wins over the
  // spec; otherwise, when the spec asks for recording, the builder owns a
  // recorder (lifetime: the builder, which therefore must outlive the
  // World).
  std::unique_ptr<World> build(FlightRecorder* recorder = nullptr);

  // The recorder the last build() attached: caller's, builder-owned, or null.
  FlightRecorder* recorder() const { return recorder_; }

 private:
  ScenarioSpec spec_;
  std::vector<PathConfig> paths_;
  std::vector<std::vector<RateChange>> traces_;
  std::unique_ptr<FlightRecorder> owned_recorder_;
  FlightRecorder* recorder_ = nullptr;
};

// --- path-manager resolution ------------------------------------------------
// PathManagerSpec -> runtime PathManagerConfig (mptcp/path_manager.h):
// seconds/ms literals become Durations, event at_s become TimePoints from the
// simulation origin, and the spec's teardown-mode strings become enum values.
PathManagerConfig path_manager_config_from_spec(const PathManagerSpec& spec);

// The path indices the connection starts with subflows on: all of them,
// minus the spec's backup paths (those join only on promotion).
std::vector<std::size_t> initial_path_indices(const PathManagerSpec& spec,
                                              std::size_t n_paths);

}  // namespace mps
