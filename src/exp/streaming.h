// Streaming experiment runner: one DASH session over a two-path world, with
// all the observables the paper's streaming figures need.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "app/dash.h"
#include "exp/run.h"
#include "obs/series.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "util/time.h"

namespace mps {

struct StreamingParams : RunParams {
  Duration video = Duration::seconds(180);
  AbrKind abr = AbrKind::kBufferBased;
  // CWND + send-buffer time series. Without a caller recorder the run owns
  // one for the CWND series; the run samples the send buffers itself.
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
  // Builds the run; a fork (`src` set) builds each part as a twin of src's.
  void construct(const StreamingRun* src);
  void begin() override;
  std::size_t lte_slot() const;
  // Records path `i`'s send-buffer occupancy (0 wifi, 1 lte) and schedules
  // the next sample 100 ms on, unless that would pass the safety cap.
  void sample_sndbuf(std::size_t i);

  StreamingParams params_;
  std::unique_ptr<DashSession> session_;
  // Send-buffer occupancy per path, sampled while collect_traces is set.
  std::array<TimeSeries, 2> sndbuf_;
  std::array<std::optional<Timer>, 2> sndbuf_timer_;
};

StreamingResult run_streaming(const StreamingParams& params);

}  // namespace mps
