#include "app/dash.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mps {

DashSession::DashSession(Simulator& sim, HttpExchange& http, DashConfig config)
    : sim_(sim), http_(http), config_(config), off_timer_(sim) {
  assert(!config_.ladder_mbps.empty());
  chunks_.reserve(static_cast<std::size_t>(total_chunks()));
}

DashSession::DashSession(const DashSession& src, Simulator& sim, HttpExchange& http)
    : sim_(sim),
      http_(http),
      config_(src.config_),
      next_chunk_(src.next_chunk_),
      started_(src.started_),
      finished_(src.finished_),
      playing_(src.playing_),
      buffer_s_(src.buffer_s_),
      last_playback_update_(src.last_playback_update_),
      rebuffer_time_(src.rebuffer_time_),
      rebuffer_events_(src.rebuffer_events_),
      off_timer_(src.off_timer_, sim, [this] { fetch_next(); }),
      chunks_(src.chunks_),
      recent_tput_mbps_(src.recent_tput_mbps_) {
  for (std::size_t i = 0; i < http_.outstanding(); ++i) {
    http_.set_outstanding_done(i, [this](const ObjectResult& r) { on_chunk_done(r); });
  }
}

int DashSession::total_chunks() const {
  return static_cast<int>(config_.video_duration / config_.chunk_duration);
}

void DashSession::start() {
  assert(!started_);
  started_ = true;
  last_playback_update_ = sim_.now();
  fetch_next();
}

void DashSession::update_playback() {
  const TimePoint now = sim_.now();
  const double elapsed = (now - last_playback_update_).to_seconds();
  last_playback_update_ = now;
  if (!playing_ || elapsed <= 0.0) return;
  if (buffer_s_ >= elapsed) {
    buffer_s_ -= elapsed;
  } else {
    // Buffer ran dry mid-interval: the remainder was a stall.
    const double stall = elapsed - buffer_s_;
    buffer_s_ = 0.0;
    playing_ = false;
    ++rebuffer_events_;
    rebuffer_time_ += Duration::from_seconds(stall);
  }
}

double DashSession::buffer_level_s() const {
  if (!playing_) return buffer_s_;
  const double elapsed = (sim_.now() - last_playback_update_).to_seconds();
  return std::max(0.0, buffer_s_ - elapsed);
}

double DashSession::pick_bitrate_mbps() {
  const auto& ladder = config_.ladder_mbps;
  if (config_.abr == AbrKind::kBufferBased) {
    // BBA (Huang et al., SIGCOMM'14): rate map over the buffer level.
    if (buffer_s_ <= config_.reservoir_s) return ladder.front();
    if (buffer_s_ >= config_.reservoir_s + config_.cushion_s) return ladder.back();
    // Linear map of the cushion onto ladder indices. (Mapping onto a rate
    // threshold instead creates a cliff at the top tier: an OFF period that
    // resumes epsilon below full cushion would never select it.)
    const double f = (buffer_s_ - config_.reservoir_s) / config_.cushion_s;
    const std::size_t idx = std::min(static_cast<std::size_t>(f * static_cast<double>(ladder.size())),
                                     ladder.size() - 1);
    return ladder[idx];
  }
  // Rate-based: discounted harmonic mean of recent chunk throughputs.
  if (recent_tput_mbps_.empty()) return ladder.front();
  double inv_sum = 0.0;
  for (double t : recent_tput_mbps_) inv_sum += 1.0 / std::max(t, 1e-6);
  const double est =
      config_.rate_safety * static_cast<double>(recent_tput_mbps_.size()) / inv_sum;
  double chosen = ladder.front();
  for (double rate : ladder) {
    if (rate <= est) chosen = rate;
  }
  return chosen;
}

void DashSession::fetch_next() {
  if (next_chunk_ >= total_chunks()) return;
  update_playback();

  ChunkRecord rec;
  rec.index = next_chunk_++;
  rec.bitrate_mbps = pick_bitrate_mbps();
  rec.bytes = static_cast<std::uint64_t>(rec.bitrate_mbps * 1e6 / 8.0 *
                                         config_.chunk_duration.to_seconds());
  rec.fetch_start = sim_.now();
  chunks_.push_back(rec);

  http_.get(rec.bytes, [this](const ObjectResult& r) { on_chunk_done(r); });
}

void DashSession::on_chunk_done(const ObjectResult& result) {
  update_playback();
  ChunkRecord& rec = chunks_.back();
  rec.fetch_end = result.completed;
  const double secs = std::max((result.completed - result.requested).to_seconds(), 1e-9);
  rec.throughput_mbps = static_cast<double>(rec.bytes) * 8.0 / secs / 1e6;
  if (!result.last_arrival_wifi.is_never() && !result.last_arrival_lte.is_never()) {
    rec.last_packet_gap_s =
        std::abs((result.last_arrival_wifi - result.last_arrival_lte).to_seconds());
  }

  recent_tput_mbps_.push_back(rec.throughput_mbps);
  if (recent_tput_mbps_.size() > config_.rate_window) {
    recent_tput_mbps_.erase(recent_tput_mbps_.begin());
  }

  buffer_s_ += config_.chunk_duration.to_seconds();
  if (!playing_ && buffer_s_ >= config_.startup_threshold.to_seconds()) {
    playing_ = true;
    last_playback_update_ = sim_.now();
  }

  if (next_chunk_ >= total_chunks()) {
    finished_ = true;
    if (on_finished) on_finished();
    return;
  }

  // ON-OFF pattern: pause while the buffer is (nearly) full, resume once one
  // chunk's worth has drained (paper Fig. 1).
  const double max_buf = config_.max_buffer.to_seconds();
  const double chunk_s = config_.chunk_duration.to_seconds();
  if (playing_ && buffer_s_ + chunk_s > max_buf) {
    const double wait = buffer_s_ + chunk_s - max_buf;
    off_timer_.schedule_after(Duration::from_seconds(wait), [this] { fetch_next(); });
  } else {
    fetch_next();
  }
}

double DashSession::mean_bitrate_mbps() const {
  if (chunks_.empty()) return 0.0;
  double sum = 0.0;
  int n = 0;
  for (const auto& c : chunks_) {
    if (c.fetch_end.ns() == 0) continue;  // never completed (run truncated)
    sum += c.bitrate_mbps;
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

double DashSession::mean_throughput_mbps() const {
  if (chunks_.empty()) return 0.0;
  double sum = 0.0;
  int n = 0;
  for (const auto& c : chunks_) {
    if (c.fetch_end.ns() == 0) continue;
    sum += c.throughput_mbps;
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

}  // namespace mps
