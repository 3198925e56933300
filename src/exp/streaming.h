// Streaming experiment runner: one DASH session over the testbed, with all
// the observables the paper's streaming figures need.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "app/dash.h"
#include "mptcp/path_manager.h"
#include "net/varbw.h"
#include "sim/simulator.h"
#include "tcp/cc.h"
#include "trace/series.h"
#include "util/stats.h"
#include "util/time.h"

namespace mps {

class FlightRecorder;
class PeriodicSampler;
class Testbed;

struct StreamingParams {
  double wifi_mbps = 8.6;
  double lte_mbps = 8.6;
  std::string scheduler = "default";
  // When set, used instead of `scheduler` (ablations with custom scheduler
  // parameters, e.g. ECF's beta).
  SchedulerFactory scheduler_override;
  CcKind cc = CcKind::kLia;
  // 0 = library default; otherwise overrides the per-subflow send-queue
  // limit (staging ablation).
  std::uint64_t staging_bytes = 0;
  bool idle_cwnd_reset = true;   // Fig. 6 ablation switch
  bool opportunistic_rtx = true;
  bool penalization = true;
  Duration video = Duration::seconds(180);
  AbrKind abr = AbrKind::kBufferBased;
  int subflows_per_path = 1;     // Fig. 15 uses 2
  std::uint64_t seed = 1;
  bool collect_traces = false;   // CWND + send-buffer time series
  // Optional flight recorder (borrowed; must outlive the run). When set, all
  // instruments/events of the run land there; when unset and collect_traces
  // is on, the runner owns a private recorder for the CWND series.
  FlightRecorder* recorder = nullptr;
  // Kernel accounting out-param (events/sim-seconds accumulate across runs)
  // and progress heartbeat; both optional, see sim/simulator.h.
  RunTelemetry* telemetry = nullptr;
  HeartbeatConfig heartbeat;
  // Optional time-varying bandwidth (Section 5.3); offsets from t = 0.
  std::vector<RateChange> wifi_trace;
  std::vector<RateChange> lte_trace;
  // Optional full path overrides (Section 6 wild profiles). When set, the
  // *_mbps fields above are ignored for path construction but still label
  // which path is "fast".
  bool use_path_overrides = false;
  PathConfig wifi_override;
  PathConfig lte_override;
  // When non-empty, the connection starts with one subflow per listed path
  // index (0 = wifi, 1 = lte); backup paths join only on promotion.
  std::vector<std::size_t> initial_paths;
  // Dynamic path management (mptcp/path_manager.h); off by default.
  bool use_path_manager = false;
  PathManagerConfig path_manager;
};

struct StreamingResult {
  double mean_bitrate_mbps = 0.0;
  double mean_throughput_mbps = 0.0;
  // Fraction of original payload bytes sent on the faster path.
  double fraction_fast = 0.0;
  std::uint64_t iw_resets_wifi = 0;
  std::uint64_t iw_resets_lte = 0;
  std::uint64_t reinjections = 0;
  // Segments re-scheduled after an abandon teardown (path-manager churn).
  std::uint64_t remapped_segments = 0;
  Duration rebuffer_time = Duration::zero();
  int chunks_fetched = 0;
  Samples ooo_delay;        // seconds, per delivered packet
  Samples last_packet_gap;  // seconds, per chunk using both paths
  std::vector<ChunkRecord> chunks;
  // Collected when collect_traces is set.
  TimeSeries cwnd_wifi, cwnd_lte;
  TimeSeries sndbuf_wifi, sndbuf_lte;
  // Average measured RTT per path (paper Table 2).
  double mean_rtt_wifi_ms = 0.0;
  double mean_rtt_lte_ms = 0.0;
  // A run reached its 30 x video + 600 s safety cap before the session
  // finished; its figures then describe a truncated session.
  bool capped = false;
};

// One streaming run held as an object so it can be paused mid-simulation and
// forked (exp/snapshot.h). run_streaming() is construct + start + finish;
// the snapshot paths insert run_to()/fork() between start and finish.
class StreamingRun {
 public:
  explicit StreamingRun(const StreamingParams& params);
  ~StreamingRun();
  StreamingRun(const StreamingRun&) = delete;
  StreamingRun& operator=(const StreamingRun&) = delete;

  // Schedules the session's first fetch and attaches the heartbeat. Call
  // once, before run_to()/finish().
  void start();
  // Advances the simulation to absolute time `t` (clamped to the safety
  // cap); no-op once the session has finished.
  void run_to(TimePoint t);
  bool done() const { return done_; }
  Simulator& sim();
  FlightRecorder* recorder() const { return rec_; }
  Connection& connection() { return *conn_; }
  // Null unless params.use_path_manager.
  PathManager* path_manager() { return pm_.get(); }

  // Forks this run at the current simulation time: an independent copy with
  // its own world, event queue, and recorder clone, bit-identical from here
  // on. Source and fork may both continue; either may be discarded.
  std::unique_ptr<StreamingRun> fork() const;

  // What-if divergence: replaces the connection's scheduler (takes effect at
  // the next pick).
  void set_scheduler(const SchedulerFactory& factory);

  // Runs to completion (or the safety cap) and gathers the result.
  StreamingResult finish();

 private:
  struct ForkTag {};
  StreamingRun(const StreamingRun& src, ForkTag);
  void construct(bool fork_shell);

  StreamingParams params_;
  TimePoint cap_;
  std::unique_ptr<FlightRecorder> owned_rec_;
  FlightRecorder* rec_ = nullptr;
  std::unique_ptr<Testbed> bed_;
  std::unique_ptr<Connection> conn_;
  std::unique_ptr<PathManager> pm_;
  std::unique_ptr<HttpExchange> http_;
  std::unique_ptr<DashSession> session_;
  std::unique_ptr<BandwidthSchedule> wifi_sched_, lte_sched_;
  std::unique_ptr<PeriodicSampler> buf_wifi_, buf_lte_;
  bool started_ = false;
  bool done_ = false;
};

StreamingResult run_streaming(const StreamingParams& params);

// Averages `runs` seeded repetitions of the scalar metrics (sample sets are
// merged). Seeds are base_seed, base_seed+1, ...
StreamingResult run_streaming_avg(StreamingParams params, int runs);
// run_streaming_avg's aggregation over per-repetition results already
// computed (rep order); capped if any repetition was.
StreamingResult aggregate_streaming(std::vector<StreamingResult> reps);

}  // namespace mps
