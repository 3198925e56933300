#include "exp/streaming.h"

#include <memory>
#include <stdexcept>

#include "app/http.h"
#include "mptcp/connection.h"
#include "obs/recorder.h"
#include "scenario/world.h"
#include "tcp/subflow.h"

namespace mps {

namespace {

// Safety cap: streaming can stall indefinitely only through a modelling bug;
// a generous multiple of the nominal video length bounds every run.
Duration run_cap(Duration video) { return video * std::int64_t{30} + Duration::seconds(600); }

constexpr Duration kSndbufInterval = Duration::millis(100);

}  // namespace

StreamingRun::StreamingRun(const StreamingParams& params)
    : RunShell(params.recorder, params.telemetry, params.heartbeat), params_(params) {
  // The CWND series are read back from the recorder's metrics registry.
  if (rec_ == nullptr && params_.collect_traces) own_recorder();
  construct(nullptr);
}

StreamingRun::StreamingRun(const StreamingRun& src, ForkTag)
    : RunShell(src, ForkTag{}), params_(src.params_) {
  construct(&src);
}

StreamingRun::~StreamingRun() { discard_events(); }

// Subflow slot of the lte path's first subflow.
std::size_t StreamingRun::lte_slot() const {
  return params_.initial_paths.empty() ? static_cast<std::size_t>(params_.subflows_per_path)
                                       : 1;
}

void StreamingRun::construct(const StreamingRun* src) {
  static constexpr const char* kWho = "StreamingRun::fork";
  if (params_.paths.size() < 2) {
    throw std::invalid_argument("StreamingRun: needs a wifi and an lte path (paths[0], paths[1])");
  }
  end_ = TimePoint::origin() + run_cap(params_.video);
  if (rec_ != nullptr && params_.collect_traces) rec_->metrics().set_keep_series(true);
  build_world(params_, src);
  build_connection(params_, src);

  if (src == nullptr) {
    DashConfig dc;
    dc.video_duration = params_.video;
    dc.abr = params_.abr;
    session_ = std::make_unique<DashSession>(sim(), *http_, dc);
  } else {
    session_ = std::make_unique<DashSession>(*src->session_, sim(), *http_);
  }
  build_traces(params_, src);

  // Trace collectors (paper Figs. 3, 11, 12). The CWND series come straight
  // from the flight recorder's "subflow.cwnd" gauge history; the send-buffer
  // occupancy is sampled here, wifi first, from t = 0. A fork takes no
  // sample: it copies the source's series and adopts its pending ticks.
  if (params_.collect_traces) {
    for (std::size_t i = 0; i < sndbuf_timer_.size(); ++i) {
      if (src == nullptr) {
        sndbuf_timer_[i].emplace(sim());
        sample_sndbuf(i);
        continue;
      }
      sndbuf_[i] = src->sndbuf_[i];
      sndbuf_timer_[i].emplace(*src->sndbuf_timer_[i], sim(), [this, i] { sample_sndbuf(i); });
    }
  }

  session_->on_finished = [this] {
    done_ = true;
    sim().request_stop();
  };
  if (src != nullptr) adopt(*src, kWho);
}

// Occupancy is staged (scheduled, awaiting CWND) plus un-acked in-flight
// bytes, "including in-flight packets" as in paper Fig. 3. Subflows are
// addressed by slot id, not live-list position: the live list compacts under
// path-manager churn, and a torn-down slot samples 0. The cap bound lets a
// drain-style Simulator::run() terminate.
void StreamingRun::sample_sndbuf(std::size_t i) {
  double bytes = 0.0;
  if (const Subflow* sf = conn_->subflow_at(i == 0 ? 0 : lte_slot())) {
    bytes = static_cast<double>(sf->staged_bytes()) +
            static_cast<double>(sf->inflight_segments()) * sf->mss();
  }
  sndbuf_[i].add(sim().now(), bytes);
  if (sim().now() + kSndbufInterval > end_) return;
  sndbuf_timer_[i]->schedule_after(kSndbufInterval, [this, i] { sample_sndbuf(i); });
}

void StreamingRun::begin() { session_->start(); }

std::unique_ptr<StreamingRun> StreamingRun::fork() const {
  return std::unique_ptr<StreamingRun>(new StreamingRun(*this, ForkTag{}));
}

StreamingResult StreamingRun::finish() {
  settle();

  StreamingResult res;
  res.mean_bitrate_mbps = session_->mean_bitrate_mbps();
  res.mean_throughput_mbps = session_->mean_throughput_mbps();
  res.rebuffer_time = session_->rebuffer_time();
  res.chunks_fetched = static_cast<int>(session_->chunks().size());
  res.chunks = session_->chunks();
  res.ooo_delay = conn_->ooo_delay();
  res.capped = !done_;
  for (const auto& c : session_->chunks()) {
    if (c.last_packet_gap_s >= 0.0) res.last_packet_gap.add(c.last_packet_gap_s);
  }

  // Aggregate per slot so subflows torn down mid-run (path-manager churn)
  // still contribute their bytes and IW resets via the retired-slot stats.
  // Value-identical to walking the live list for static topologies.
  std::uint64_t bytes_wifi = 0, bytes_lte = 0;
  RunningStats rtt_wifi, rtt_lte;
  for (std::size_t slot = 0; slot < conn_->slot_count(); ++slot) {
    const bool is_wifi = conn_->slot_path(slot) == &world_->path(0);
    const Subflow* sf = conn_->subflow_at(slot);
    const SubflowStats& st = sf != nullptr ? sf->stats() : conn_->retired_stats(slot);
    if (is_wifi) {
      bytes_wifi += st.bytes_sent;
      res.iw_resets_wifi += st.iw_resets;
      if (sf != nullptr && sf->rtt().lifetime().count() > 0) {
        rtt_wifi.add(sf->rtt().lifetime().mean());
      }
    } else {
      bytes_lte += st.bytes_sent;
      res.iw_resets_lte += st.iw_resets;
      if (sf != nullptr && sf->rtt().lifetime().count() > 0) {
        rtt_lte.add(sf->rtt().lifetime().mean());
      }
    }
  }
  const std::uint64_t total = bytes_wifi + bytes_lte;
  const std::uint64_t fast_bytes = fast_path_ == 0 ? bytes_wifi : bytes_lte;
  res.fraction_fast = total > 0 ? static_cast<double>(fast_bytes) / total : 0.0;
  res.reinjections = conn_->meta_stats().reinjections;
  res.remapped_segments = conn_->meta_stats().remapped_segments;
  res.mean_rtt_wifi_ms = rtt_wifi.mean() * 1e3;
  res.mean_rtt_lte_ms = rtt_lte.mean() * 1e3;

  if (params_.collect_traces) {
    MetricLabels labels;
    labels.conn = static_cast<std::int64_t>(conn_->config().conn_id);
    labels.subflow = 0;
    if (const TimeSeries* s = rec_->metrics().series("subflow.cwnd", labels)) {
      res.cwnd_wifi = *s;
    }
    labels.subflow = static_cast<std::int64_t>(lte_slot());
    if (const TimeSeries* s = rec_->metrics().series("subflow.cwnd", labels)) {
      res.cwnd_lte = *s;
    }
    res.sndbuf_wifi = sndbuf_[0];
    res.sndbuf_lte = sndbuf_[1];
  }
  return res;
}

StreamingResult run_streaming(const StreamingParams& params) {
  StreamingRun run(params);
  run.start();
  return run.finish();
}

}  // namespace mps
