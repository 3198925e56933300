#include "scenario/world.h"

#include <cmath>

#include "net/wild.h"
#include "obs/prof.h"
#include "obs/recorder.h"
#include "tcp/cc_registry.h"

namespace mps {

World::World(WorldConfig config) : config_(std::move(config)), rng_(config_.seed) {
  sim_.set_recorder(config_.recorder);
  for (const PathConfig& pc : config_.paths) {
    paths_.push_back(std::make_unique<Path>(sim_, pc));
  }
  for (auto& p : paths_) p->down().set_rng(rng_.fork());
  for (auto& p : paths_) down_mux_.attach_to(p->down());
  for (auto& p : paths_) up_mux_.attach_to(p->up());
  for (auto& p : paths_) {
    for (int i = 0; i < config_.subflows_per_path; ++i) conn_paths_.push_back(p.get());
  }
}

std::unique_ptr<Connection> World::make_connection(const SchedulerFactory& scheduler) {
  MPS_PROF_MEM_SCOPE(kConn);
  ConnectionConfig cc = config_.conn;
  cc.conn_id = next_conn_id_++;

  return std::make_unique<Connection>(sim_, cc, conn_paths_, scheduler(), down_mux_, up_mux_);
}

std::unique_ptr<Connection> World::make_connection_on(
    const std::vector<std::size_t>& path_indices, const SchedulerFactory& scheduler) {
  MPS_PROF_MEM_SCOPE(kConn);
  ConnectionConfig cc = config_.conn;
  cc.conn_id = next_conn_id_++;

  std::vector<Path*> paths;
  paths.reserve(path_indices.size());
  for (std::size_t idx : path_indices) paths.push_back(paths_[idx].get());

  return std::make_unique<Connection>(sim_, cc, paths, scheduler(), down_mux_, up_mux_);
}

namespace {

Duration duration_from_ms(double ms) {
  return Duration::nanos(std::llround(ms * 1e6));
}

FaultConfig resolve_faults(const FaultSpec& f) {
  FaultConfig c;
  if (f.gilbert_elliott.enabled) {
    c.gilbert_elliott.enabled = true;
    c.gilbert_elliott.p_good_bad = f.gilbert_elliott.p_good_bad;
    c.gilbert_elliott.p_bad_good = f.gilbert_elliott.p_bad_good;
    c.gilbert_elliott.loss_good = f.gilbert_elliott.loss_good;
    c.gilbert_elliott.loss_bad = f.gilbert_elliott.loss_bad;
  }
  for (const OutageSpec& w : f.outages) {
    c.outages.push_back(OutageWindow{Duration::from_seconds(w.at_s),
                                     Duration::from_seconds(w.for_s)});
  }
  if (f.flap.enabled) {
    c.flap.enabled = true;
    c.flap.period = Duration::from_seconds(f.flap.period_s);
    c.flap.down_time = Duration::from_seconds(f.flap.down_s);
    c.flap.phase = Duration::from_seconds(f.flap.start_s);
  }
  if (f.reorder.enabled) {
    c.reorder.enabled = true;
    c.reorder.prob = f.reorder.prob;
    c.reorder.delay = duration_from_ms(f.reorder.delay_ms);
    c.reorder.jitter = duration_from_ms(f.reorder.jitter_ms);
  }
  return c;
}

// Run length used to size generated bandwidth traces: the video length for
// streaming, the runners' safety caps otherwise.
Duration trace_duration(const WorkloadSpec& w) {
  switch (w.kind) {
    case WorkloadKind::kStream: return Duration::from_seconds(w.video_s);
    case WorkloadKind::kDownload: return Duration::seconds(600);
    case WorkloadKind::kWeb: return Duration::seconds(3600);
  }
  return Duration::seconds(600);
}

PathConfig resolve_path(const PathSpec& p, bool* pure) {
  PathConfig c;
  switch (p.profile) {
    case PathProfile::kWifi: c = wifi_profile(Rate::mbps(p.rate_mbps)); break;
    case PathProfile::kLte: c = lte_profile(Rate::mbps(p.rate_mbps)); break;
    case PathProfile::kCustom:
      c.down_rate = Rate::mbps(p.rate_mbps);
      break;
  }
  // An unmodified profile path must resolve through wifi_profile()/
  // lte_profile() alone — the runners then reconstruct it from the rate
  // literal exactly as the historical parameter structs did.
  const PathConfig defaults = c;
  *pure = p.profile != PathProfile::kCustom && p.name == defaults.name &&
          duration_from_ms(p.rtt_ms) == defaults.rtt_base &&
          p.queue_packets == static_cast<std::int64_t>(defaults.queue_packets) &&
          p.loss_rate == defaults.loss_rate &&
          Rate::mbps(p.up_mbps) == defaults.up_rate && !p.faults.enabled();
  c.name = p.name;
  c.rtt_base = duration_from_ms(p.rtt_ms);
  c.queue_packets = static_cast<std::size_t>(p.queue_packets);
  c.loss_rate = p.loss_rate;
  c.up_rate = Rate::mbps(p.up_mbps);
  c.fault = resolve_faults(p.faults);
  return c;
}

bool generates_trace(VariationKind k) {
  return k == VariationKind::kRandom || k == VariationKind::kJitter;
}

}  // namespace

WorldBuilder::WorldBuilder(ScenarioSpec spec) : spec_(std::move(spec)) {
  paths_.reserve(spec_.paths.size());
  pure_.reserve(spec_.paths.size());
  for (const PathSpec& p : spec_.paths) {
    bool pure = false;
    paths_.push_back(resolve_path(p, &pure));
    pure_.push_back(pure);
  }

  // Generated traces: one master RNG, forked once per varied path in path
  // order, then each trace generated from its fork. This matches the bench
  // drivers (e.g. Fig. 16/22), which fork wifi then lte before generating.
  traces_.resize(spec_.paths.size());
  bool any_generated = false;
  for (const PathSpec& p : spec_.paths) any_generated |= generates_trace(p.variation.kind);
  std::vector<Rng> forks;
  if (any_generated) {
    Rng master(spec_.trace_seed);
    for (const PathSpec& p : spec_.paths) {
      if (generates_trace(p.variation.kind)) forks.push_back(master.fork());
    }
  }

  // Competing-traffic runs are bounded by the traffic block's duration, not
  // the (ignored) workload.
  const Duration total = spec_.traffic.enabled
                             ? Duration::from_seconds(spec_.traffic.duration_s)
                             : trace_duration(spec_.workload);
  std::size_t fork_idx = 0;
  for (std::size_t i = 0; i < spec_.paths.size(); ++i) {
    const VariationSpec& v = spec_.paths[i].variation;
    switch (v.kind) {
      case VariationKind::kNone:
        break;
      case VariationKind::kSchedule:
        for (const RatePoint& pt : v.schedule) {
          traces_[i].push_back({Duration::from_seconds(pt.at_s), Rate::mbps(pt.mbps)});
        }
        break;
      case VariationKind::kRandom: {
        std::vector<Rate> levels;
        for (double l : v.levels_mbps) levels.push_back(Rate::mbps(l));
        traces_[i] = make_random_bandwidth_trace(
            forks[fork_idx++], levels, Duration::from_seconds(v.mean_interval_s), total);
        // Section 5.3 semantics: the path starts at the trace's first level
        // (reconstructed from the Mbps label, as the bench drivers do).
        paths_[i].down_rate = Rate::mbps(traces_[i].front().rate.to_mbps());
        break;
      }
      case VariationKind::kJitter:
        traces_[i] = make_wild_jitter_trace(forks[fork_idx++], paths_[i].down_rate,
                                            v.jitter_frac,
                                            Duration::from_seconds(v.jitter_interval_s), total);
        break;
    }
  }
}

WorldBuilder::~WorldBuilder() = default;

ConnectionConfig WorldBuilder::conn_config() const {
  ConnectionConfig c;
  c.cc = cc_kind_from_name(spec_.conn.cc);
  c.idle_cwnd_reset = spec_.conn.idle_cwnd_reset;
  c.opportunistic_retransmission = spec_.conn.opportunistic_rtx;
  c.penalization = spec_.conn.penalization;
  if (spec_.conn.staging_bytes > 0) {
    c.subflow_staging_bytes = static_cast<std::uint64_t>(spec_.conn.staging_bytes);
  }
  return c;
}

WorldConfig WorldBuilder::world_config(FlightRecorder* recorder) const {
  WorldConfig w;
  w.paths = paths_;
  w.subflows_per_path = static_cast<int>(spec_.subflows_per_path);
  w.conn = conn_config();
  w.seed = spec_.seed;
  w.recorder = recorder;
  return w;
}

std::unique_ptr<World> WorldBuilder::build(FlightRecorder* recorder) {
  MPS_PROF_SCOPE(kWorldBuild);
  MPS_PROF_MEM_SCOPE(kWorld);
  recorder_ = recorder;
  if (recorder_ == nullptr && (spec_.record.collect_traces || spec_.record.summarize)) {
    if (owned_recorder_ == nullptr) owned_recorder_ = std::make_unique<FlightRecorder>();
    recorder_ = owned_recorder_.get();
  }
  if (recorder_ != nullptr && spec_.record.collect_traces) {
    recorder_->metrics().set_keep_series(true);
  }
  return std::make_unique<World>(world_config(recorder_));
}

PathManagerConfig path_manager_config_from_spec(const PathManagerSpec& spec) {
  PathManagerConfig c;
  c.tick = Duration::from_seconds(spec.tick_ms * 1e-3);
  c.drain_timeout = Duration::from_seconds(spec.drain_timeout_s);
  c.join_delay_rtt = spec.join_delay_rtt;
  for (const PathEventSpec& e : spec.events) {
    PathManagerConfig::TimedAction a;
    a.at = TimePoint::origin() + Duration::from_seconds(e.at_s);
    a.op = e.action == "add" ? PathManagerConfig::TimedAction::Op::kAdd
                             : PathManagerConfig::TimedAction::Op::kRemove;
    a.path = static_cast<std::size_t>(e.path);
    a.mode = e.mode == "abandon" ? Connection::TeardownMode::kAbandon
                                 : Connection::TeardownMode::kDrain;
    c.actions.push_back(a);
  }
  if (spec.backup.enabled) {
    for (std::int64_t p : spec.backup.paths) {
      c.backup_paths.push_back(static_cast<std::size_t>(p));
    }
    c.promote_after_rtos = static_cast<int>(spec.backup.promote_after_rtos);
  }
  if (spec.cap.enabled) {
    c.max_subflows = static_cast<int>(spec.cap.max_subflows);
    c.bytes_per_subflow = static_cast<std::uint64_t>(spec.cap.bytes_per_subflow);
    for (std::int64_t p : spec.cap.paths) {
      c.growth_paths.push_back(static_cast<std::size_t>(p));
    }
  }
  return c;
}

std::vector<std::size_t> initial_path_indices(const PathManagerSpec& spec,
                                              std::size_t n_paths) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n_paths; ++i) {
    bool backup = false;
    for (std::int64_t b : spec.backup.paths) {
      if (static_cast<std::size_t>(b) == i) { backup = true; break; }
    }
    if (!backup) out.push_back(i);
  }
  return out;
}

}  // namespace mps
