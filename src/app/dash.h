// DASH adaptive-bitrate video streaming client/server model.
//
// Reproduces the paper's workload: the six-step Youtube-style bitrate ladder
// (paper Table 1), 5-second chunks, a playback buffer with initial
// buffering, ON-OFF steady state, and rebuffering (paper Fig. 1), and the
// buffer-based ABR of Huang et al. [12] that the paper's client uses (a
// throughput/rate-based ABR is also provided for ablations).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "app/http.h"
#include "sim/simulator.h"

namespace mps {

enum class AbrKind { kBufferBased, kRateBased };

struct DashConfig {
  // Paper Table 1: bitrate (Mbps) per resolution 144p..1080p.
  std::vector<double> ladder_mbps = {0.26, 0.64, 1.00, 1.60, 4.14, 8.47};
  Duration chunk_duration = Duration::seconds(5);
  Duration video_duration = Duration::seconds(1200);  // paper: 20 min playout
  Duration max_buffer = Duration::seconds(30);
  Duration startup_threshold = Duration::seconds(5);
  AbrKind abr = AbrKind::kBufferBased;
  // Buffer-based ABR (BBA): map buffer in [reservoir, reservoir+cushion]
  // linearly onto the rate ladder.
  double reservoir_s = 5.0;
  double cushion_s = 20.0;
  // Rate-based ABR: harmonic mean of recent chunk throughputs, discounted.
  double rate_safety = 0.85;
  std::size_t rate_window = 5;
};

struct ChunkRecord {
  int index = 0;
  double bitrate_mbps = 0.0;
  std::uint64_t bytes = 0;
  TimePoint fetch_start;
  TimePoint fetch_end;
  double throughput_mbps = 0.0;
  // |last WiFi packet - last LTE packet| for this chunk; negative when a
  // subflow carried no packet (paper Fig. 5 uses both-path chunks).
  double last_packet_gap_s = -1.0;
};

class DashSession {
 public:
  DashSession(Simulator& sim, HttpExchange& http, DashConfig config);
  // Snapshot support (exp/snapshot.h): the twin of `src` over `http`, the
  // twin of src's exchange in the fork's simulator `sim`. Copies the
  // playback/ABR/fetch state, adopts the pending OFF-period timer and
  // installs this session's chunk-completion callback on the exchange's
  // outstanding objects. on_finished starts empty: owners re-wire it.
  DashSession(const DashSession& src, Simulator& sim, HttpExchange& http);
  DashSession(const DashSession&) = delete;
  DashSession& operator=(const DashSession&) = delete;

  void start();
  bool finished() const { return finished_; }
  std::function<void()> on_finished;

  // --- metrics --------------------------------------------------------------
  const std::vector<ChunkRecord>& chunks() const { return chunks_; }
  double mean_bitrate_mbps() const;
  double mean_throughput_mbps() const;
  Duration rebuffer_time() const { return rebuffer_time_; }
  int rebuffer_events() const { return rebuffer_events_; }
  double buffer_level_s() const;

 private:
  int total_chunks() const;
  void fetch_next();
  void on_chunk_done(const ObjectResult& result);
  void update_playback();
  double pick_bitrate_mbps();

  Simulator& sim_;
  HttpExchange& http_;
  DashConfig config_;

  int next_chunk_ = 0;
  bool started_ = false;
  bool finished_ = false;
  bool playing_ = false;
  double buffer_s_ = 0.0;
  TimePoint last_playback_update_;
  Duration rebuffer_time_ = Duration::zero();
  int rebuffer_events_ = 0;
  Timer off_timer_;

  std::vector<ChunkRecord> chunks_;
  std::vector<double> recent_tput_mbps_;
};

}  // namespace mps
