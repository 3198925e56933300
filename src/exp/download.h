// Simple-download (wget) experiment runner: one object over a fresh MPTCP
// connection (paper Section 5.4).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mptcp/path_manager.h"
#include "mptcp/scheduler.h"
#include "net/path.h"
#include "sim/simulator.h"
#include "tcp/cc.h"
#include "util/stats.h"
#include "util/time.h"

namespace mps {

class HttpExchange;
class World;

struct DownloadParams {
  double wifi_mbps = 1.0;
  double lte_mbps = 5.0;
  std::uint64_t bytes = 512 * 1024;
  std::string scheduler = "default";
  CcKind cc = CcKind::kLia;
  std::uint64_t seed = 1;
  // Kernel accounting out-param and progress heartbeat (sim/simulator.h).
  RunTelemetry* telemetry = nullptr;
  HeartbeatConfig heartbeat;
  // When non-empty, these paths replace the wifi/lte profile pair (N-path
  // worlds for the path-manager presets). Index 0 is primary.
  std::vector<PathConfig> paths;
  // When non-empty, the connection starts with one subflow per listed path
  // index (backup paths stay in reserve); empty = one per path as before.
  std::vector<std::size_t> initial_paths;
  // Dynamic path management (mptcp/path_manager.h); off by default.
  bool use_path_manager = false;
  PathManagerConfig path_manager;
};

struct DownloadResult {
  Duration completion = Duration::zero();
  double fraction_fast = 0.0;
  Samples ooo_delay;
  // Payload bytes sent per world path (index order), live + retired subflows.
  std::vector<std::uint64_t> path_bytes;
  // Segments re-scheduled after an abandon teardown (meta_stats mirror).
  std::uint64_t remapped_segments = 0;
  // The run reached its 600 s safety cap before the download completed;
  // completion then stays zero and must not be read as a time.
  bool capped = false;
};

// One download run held as an object so it can be paused mid-simulation and
// forked (exp/snapshot.h). run_download() is construct + start + finish.
class DownloadRun {
 public:
  explicit DownloadRun(const DownloadParams& params);
  ~DownloadRun();
  DownloadRun(const DownloadRun&) = delete;
  DownloadRun& operator=(const DownloadRun&) = delete;

  // Issues the GET and attaches the heartbeat. Call once.
  void start();
  // Advances to absolute time `t` (clamped to the 600 s safety cap); no-op
  // once the download has completed.
  void run_to(TimePoint t);
  bool done() const { return done_; }
  Simulator& sim();
  Connection& connection() { return *conn_; }
  World& world() { return *world_; }
  // Null unless params.use_path_manager.
  PathManager* path_manager() { return pm_.get(); }

  // Independent copy at the current simulation time (see StreamingRun::fork).
  std::unique_ptr<DownloadRun> fork() const;

  // What-if divergence: replaces the connection's scheduler.
  void set_scheduler(const SchedulerFactory& factory);

  // Runs to completion (or the cap) and gathers the result.
  DownloadResult finish();

 private:
  struct ForkTag {};
  DownloadRun(const DownloadRun& src, ForkTag);
  void construct();
  void install_done();

  DownloadParams params_;
  TimePoint cap_;
  std::unique_ptr<World> world_;
  std::unique_ptr<Connection> conn_;
  std::unique_ptr<PathManager> pm_;
  std::unique_ptr<HttpExchange> http_;
  std::size_t fast_path_ = 0;  // path index with the highest downlink rate
  DownloadResult res_;
  bool started_ = false;
  bool done_ = false;
};

DownloadResult run_download(const DownloadParams& params);

// `runs` seeded repetitions; returns per-run completion times in seconds.
Samples run_download_samples(DownloadParams params, int runs);

}  // namespace mps
