// Streaming experiment runner: one DASH session over a two-path world, with
// all the observables the paper's streaming figures need.
#pragma once

#include <memory>
#include <vector>

#include "app/dash.h"
#include "exp/run.h"
#include "trace/series.h"
#include "util/stats.h"
#include "util/time.h"

namespace mps {

class PeriodicSampler;

struct StreamingParams : RunParams {
  Duration video = Duration::seconds(180);
  AbrKind abr = AbrKind::kBufferBased;
  // CWND + send-buffer time series. Without a caller recorder the run owns
  // one for the CWND series.
  bool collect_traces = false;
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
// forked (exp/snapshot.h). Path 0 is wifi, path 1 lte. run_streaming() is
// construct + start + finish; the snapshot paths insert run_to()/fork()
// between start and finish.
class StreamingRun final : public RunShell {
 public:
  explicit StreamingRun(const StreamingParams& params);
  ~StreamingRun() override;

  using RunShell::connection;
  using RunShell::path_manager;

  // Forks this run at the current simulation time: an independent copy with
  // its own world, event queue, and recorder clone, bit-identical from here
  // on. Source and fork may both continue; either may be discarded.
  std::unique_ptr<StreamingRun> fork() const;

  // Runs to completion (or the safety cap) and gathers the result.
  StreamingResult finish();

 private:
  StreamingRun(const StreamingRun& src, ForkTag);
  void construct(bool fork_shell);
  void begin() override;
  std::size_t lte_slot() const;

  StreamingParams params_;
  std::unique_ptr<DashSession> session_;
  std::unique_ptr<PeriodicSampler> buf_wifi_, buf_lte_;
};

StreamingResult run_streaming(const StreamingParams& params);

}  // namespace mps
