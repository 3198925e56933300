#include "exp/streaming.h"

#include <cassert>
#include <memory>

#include "app/http.h"
#include "exp/snapshot.h"
#include "exp/testbed.h"
#include "obs/recorder.h"
#include "sched/registry.h"
#include "trace/collect.h"

namespace mps {

namespace {

// Safety cap: streaming can stall indefinitely only through a modelling bug;
// a generous multiple of the nominal video length bounds every run.
Duration run_cap(Duration video) { return video * std::int64_t{30} + Duration::seconds(600); }

}  // namespace

StreamingRun::StreamingRun(const StreamingParams& params) : params_(params) {
  // Flight recorder: use the caller's if given, otherwise own one when the
  // CWND/send-buffer series are requested (they are read back from the
  // metrics registry).
  rec_ = params_.recorder;
  if (rec_ == nullptr && params_.collect_traces) {
    owned_rec_ = std::make_unique<FlightRecorder>();
    rec_ = owned_rec_.get();
  }
  construct(/*fork_shell=*/false);
}

StreamingRun::StreamingRun(const StreamingRun& src, ForkTag) : params_(src.params_) {
  // The fork owns a private clone of the source's recorder, seeded before
  // construction so the fork's instrument handles resolve into the copied
  // storage index-for-index.
  if (src.rec_ != nullptr) {
    owned_rec_ = std::make_unique<FlightRecorder>();
    owned_rec_->clone_from(*src.rec_);
    rec_ = owned_rec_.get();
  }
  construct(/*fork_shell=*/true);
  snapshot::require_construction_event_free(sim(), "StreamingRun::fork");
  bed_->world().restore_from(src.bed_->world());
  if (pm_ != nullptr) pm_->restore_topology(*src.pm_);
  conn_->restore_from(*src.conn_);
  if (pm_ != nullptr) pm_->restore_from(*src.pm_);
  http_->restore_from(*src.http_);
  session_->restore_from(*src.session_);
  if (wifi_sched_ != nullptr) wifi_sched_->restore_from(*src.wifi_sched_);
  if (lte_sched_ != nullptr) lte_sched_->restore_from(*src.lte_sched_);
  if (buf_wifi_ != nullptr) buf_wifi_->restore_from(*src.buf_wifi_);
  if (buf_lte_ != nullptr) buf_lte_->restore_from(*src.buf_lte_);
  started_ = src.started_;
  done_ = src.done_;
  if (started_ && params_.heartbeat.enabled()) {
    bed_->sim().set_heartbeat(params_.heartbeat.interval_s, params_.heartbeat.fn);
  }
  if (rec_ != nullptr) rec_->restore_data_from(*src.rec_);
  snapshot::require_fully_rebound(sim(), "StreamingRun::fork");
}

StreamingRun::~StreamingRun() = default;

void StreamingRun::construct(bool fork_shell) {
  cap_ = TimePoint::origin() + run_cap(params_.video);

  TestbedConfig tb;
  if (params_.use_path_overrides) {
    tb.wifi = params_.wifi_override;
    tb.lte = params_.lte_override;
  } else {
    tb.wifi = wifi_profile(Rate::mbps(params_.wifi_mbps));
    tb.lte = lte_profile(Rate::mbps(params_.lte_mbps));
  }
  tb.subflows_per_path = params_.subflows_per_path;
  tb.seed = params_.seed;
  if (rec_ != nullptr && params_.collect_traces) rec_->metrics().set_keep_series(true);
  tb.recorder = rec_;
  tb.conn.cc = params_.cc;
  tb.conn.idle_cwnd_reset = params_.idle_cwnd_reset;
  tb.conn.opportunistic_retransmission = params_.opportunistic_rtx;
  tb.conn.penalization = params_.penalization;
  if (params_.staging_bytes > 0) tb.conn.subflow_staging_bytes = params_.staging_bytes;

  bed_ = std::make_unique<Testbed>(tb);
  const SchedulerFactory& factory = params_.scheduler_override
                                        ? params_.scheduler_override
                                        : scheduler_factory(params_.scheduler);
  conn_ = params_.initial_paths.empty()
              ? bed_->make_connection(factory)
              : bed_->world().make_connection_on(params_.initial_paths, factory);
  if (params_.use_path_manager) {
    std::vector<Path*> pm_paths = {&bed_->wifi(), &bed_->lte()};
    pm_ = std::make_unique<PathManager>(*conn_, std::move(pm_paths), params_.path_manager);
  }
  http_ = std::make_unique<HttpExchange>(bed_->sim(), *conn_, bed_->request_delay());

  DashConfig dc;
  dc.video_duration = params_.video;
  dc.abr = params_.abr;
  session_ = std::make_unique<DashSession>(bed_->sim(), *http_, dc);

  // Optional time-varying bandwidth. A fork shell constructs the schedules
  // but leaves them idle; restore_from adopts the source's pending event.
  if (!params_.wifi_trace.empty()) {
    wifi_sched_ =
        std::make_unique<BandwidthSchedule>(bed_->sim(), bed_->wifi(), params_.wifi_trace);
    if (!fork_shell) wifi_sched_->start();
  }
  if (!params_.lte_trace.empty()) {
    lte_sched_ =
        std::make_unique<BandwidthSchedule>(bed_->sim(), bed_->lte(), params_.lte_trace);
    if (!fork_shell) lte_sched_->start();
  }

  // Trace collectors (paper Figs. 3, 11, 12). The CWND series come straight
  // from the flight recorder's "subflow.cwnd" gauge history; the send-buffer
  // occupancy still uses a periodic sampler, bounded by the run cap so the
  // drain-style Simulator::run() terminates. Fork shells defer the initial
  // tick; the source's samples arrive via restore_from.
  // Samplers address subflows by slot id, not live-list position: the live
  // list compacts under path-manager churn, and a torn-down slot samples 0.
  const std::size_t wifi_idx = 0;
  const std::size_t lte_idx = params_.initial_paths.empty()
                                  ? static_cast<std::size_t>(params_.subflows_per_path)
                                  : 1;
  Connection* conn = conn_.get();
  const auto sample_slot = [conn](std::size_t slot) {
    const Subflow* sf = conn->subflow_at(slot);
    return sf != nullptr ? subflow_sndbuf_bytes(*sf) : 0.0;
  };
  if (params_.collect_traces) {
    const TimePoint sample_until = cap_;
    if (fork_shell) {
      buf_wifi_ = std::make_unique<PeriodicSampler>(
          PeriodicSampler::deferred_t{}, bed_->sim(), Duration::millis(100),
          [sample_slot, wifi_idx] { return sample_slot(wifi_idx); }, sample_until);
      buf_lte_ = std::make_unique<PeriodicSampler>(
          PeriodicSampler::deferred_t{}, bed_->sim(), Duration::millis(100),
          [sample_slot, lte_idx] { return sample_slot(lte_idx); }, sample_until);
    } else {
      buf_wifi_ = std::make_unique<PeriodicSampler>(
          bed_->sim(), Duration::millis(100),
          [sample_slot, wifi_idx] { return sample_slot(wifi_idx); }, sample_until);
      buf_lte_ = std::make_unique<PeriodicSampler>(
          bed_->sim(), Duration::millis(100),
          [sample_slot, lte_idx] { return sample_slot(lte_idx); }, sample_until);
    }
  }

  session_->on_finished = [this] {
    done_ = true;
    bed_->sim().request_stop();
  };
}

Simulator& StreamingRun::sim() { return bed_->sim(); }

void StreamingRun::start() {
  assert(!started_);
  started_ = true;
  session_->start();
  if (pm_ != nullptr) pm_->start();
  if (params_.heartbeat.enabled()) {
    bed_->sim().set_heartbeat(params_.heartbeat.interval_s, params_.heartbeat.fn);
  }
}

void StreamingRun::run_to(TimePoint t) {
  if (done_) return;
  bed_->sim().run_until(t < cap_ ? t : cap_);
}

std::unique_ptr<StreamingRun> StreamingRun::fork() const {
  return std::unique_ptr<StreamingRun>(new StreamingRun(*this, ForkTag{}));
}

void StreamingRun::set_scheduler(const SchedulerFactory& factory) {
  conn_->set_scheduler(factory());
}

StreamingResult StreamingRun::finish() {
  if (!done_) bed_->sim().run_until(cap_);
  if (params_.telemetry != nullptr) {
    params_.telemetry->add(bed_->sim(), 0, TimePoint::origin());
  }

  // --- collect --------------------------------------------------------------
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

  const double wifi_mbps = params_.use_path_overrides
                               ? params_.wifi_override.down_rate.to_mbps()
                               : params_.wifi_mbps;
  const double lte_mbps = params_.use_path_overrides
                              ? params_.lte_override.down_rate.to_mbps()
                              : params_.lte_mbps;
  const bool lte_fast = lte_mbps > wifi_mbps;  // tie -> WiFi (smaller base RTT)

  // Aggregate per slot so subflows torn down mid-run (path-manager churn)
  // still contribute their bytes and IW resets via the retired-slot stats.
  // Value-identical to walking the live list for static topologies.
  std::uint64_t bytes_wifi = 0, bytes_lte = 0;
  RunningStats rtt_wifi, rtt_lte;
  for (std::size_t slot = 0; slot < conn_->slot_count(); ++slot) {
    const bool is_wifi = conn_->slot_path(slot) == &bed_->wifi();
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
  const std::uint64_t fast_bytes = lte_fast ? bytes_lte : bytes_wifi;
  res.fraction_fast = total > 0 ? static_cast<double>(fast_bytes) / total : 0.0;
  res.reinjections = conn_->meta_stats().reinjections;
  res.remapped_segments = conn_->meta_stats().remapped_segments;
  res.mean_rtt_wifi_ms = rtt_wifi.mean() * 1e3;
  res.mean_rtt_lte_ms = rtt_lte.mean() * 1e3;

  if (params_.collect_traces) {
    const std::size_t wifi_idx = 0;
    const std::size_t lte_idx = params_.initial_paths.empty()
                                    ? static_cast<std::size_t>(params_.subflows_per_path)
                                    : 1;
    MetricLabels labels;
    labels.conn = static_cast<std::int64_t>(conn_->config().conn_id);
    labels.subflow = static_cast<std::int64_t>(wifi_idx);
    if (const TimeSeries* s = rec_->metrics().series("subflow.cwnd", labels)) {
      res.cwnd_wifi = *s;
    }
    labels.subflow = static_cast<std::int64_t>(lte_idx);
    if (const TimeSeries* s = rec_->metrics().series("subflow.cwnd", labels)) {
      res.cwnd_lte = *s;
    }
    res.sndbuf_wifi = buf_wifi_->series();
    res.sndbuf_lte = buf_lte_->series();
  }
  return res;
}

StreamingResult run_streaming(const StreamingParams& params) {
  StreamingRun run(params);
  run.start();
  return run.finish();
}

StreamingResult aggregate_streaming(std::vector<StreamingResult> reps) {
  StreamingResult acc;
  const int runs = static_cast<int>(reps.size());
  for (int r = 0; r < runs; ++r) {
    StreamingResult one = std::move(reps[static_cast<std::size_t>(r)]);
    if (r == 0) {
      acc = std::move(one);
      continue;
    }
    acc.mean_bitrate_mbps += one.mean_bitrate_mbps;
    acc.mean_throughput_mbps += one.mean_throughput_mbps;
    acc.fraction_fast += one.fraction_fast;
    acc.iw_resets_wifi += one.iw_resets_wifi;
    acc.iw_resets_lte += one.iw_resets_lte;
    acc.reinjections += one.reinjections;
    acc.remapped_segments += one.remapped_segments;
    acc.mean_rtt_wifi_ms += one.mean_rtt_wifi_ms;
    acc.mean_rtt_lte_ms += one.mean_rtt_lte_ms;
    acc.ooo_delay.merge(one.ooo_delay);
    acc.last_packet_gap.merge(one.last_packet_gap);
    acc.capped = acc.capped || one.capped;
  }
  if (runs > 1) {
    const double n = runs;
    acc.mean_bitrate_mbps /= n;
    acc.mean_throughput_mbps /= n;
    acc.fraction_fast /= n;
    acc.iw_resets_wifi = static_cast<std::uint64_t>(acc.iw_resets_wifi / runs);
    acc.iw_resets_lte = static_cast<std::uint64_t>(acc.iw_resets_lte / runs);
    acc.reinjections = static_cast<std::uint64_t>(acc.reinjections / runs);
    acc.remapped_segments = static_cast<std::uint64_t>(acc.remapped_segments / runs);
    acc.mean_rtt_wifi_ms /= n;
    acc.mean_rtt_lte_ms /= n;
  }
  return acc;
}

StreamingResult run_streaming_avg(StreamingParams params, int runs) {
  std::vector<StreamingResult> reps;
  for (int r = 0; r < runs; ++r) {
    params.seed = params.seed + static_cast<std::uint64_t>(r == 0 ? 0 : 1);
    reps.push_back(run_streaming(params));
  }
  return aggregate_streaming(std::move(reps));
}

}  // namespace mps
