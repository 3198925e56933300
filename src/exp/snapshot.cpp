#include "exp/snapshot.h"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "obs/recorder.h"
#include "sched/registry.h"

namespace mps {

namespace snapshot {

void require_construction_event_free(Simulator& sim, const char* who) {
  if (sim.pending_events() != 0) {
    throw std::logic_error(std::string(who) + ": fork-shell construction scheduled " +
                           std::to_string(sim.pending_events()) +
                           " event(s); model construction must be event-free");
  }
}

void require_fully_rebound(Simulator& sim, const char* who) {
  std::vector<std::pair<EventId, TimePoint>> unbound;
  sim.collect_unbound_events(unbound);
  if (unbound.empty()) return;
  std::string msg = std::string(who) + ": " + std::to_string(unbound.size()) +
                    " pending event(s) not rebound after fork:";
  const std::size_t show = unbound.size() < 8 ? unbound.size() : 8;
  for (std::size_t i = 0; i < show; ++i) {
    msg += " [id " + std::to_string(unbound[i].first) + " @ " +
           std::to_string((unbound[i].second - TimePoint::origin()).to_seconds()) + "s]";
  }
  throw std::logic_error(msg);
}

}  // namespace snapshot

// --- TrafficRun -------------------------------------------------------------

TrafficRun::TrafficRun(const ScenarioSpec& spec, const ScenarioRunOptions& opts)
    : opts_(opts) {
  construct(spec, opts_.recorder);
}

TrafficRun::TrafficRun(const TrafficRun& src, ForkTag) : opts_(src.opts_) {
  FlightRecorder* rec = nullptr;
  if (src.builder_->recorder() != nullptr) {
    owned_rec_ = std::make_unique<FlightRecorder>();
    owned_rec_->clone_from(*src.builder_->recorder());
    rec = owned_rec_.get();
  }
  construct(src.builder_->spec(), rec);
  snapshot::require_construction_event_free(sim(), "TrafficRun::fork");
  world_->restore_from(*src.world_);
  engine_->restore_from(*src.engine_);
  base_ = src.base_;
  events_before_ = src.events_before_;
  started_ = src.started_;
  finished_ = src.finished_;
  if (started_ && opts_.heartbeat.enabled()) {
    world_->sim().set_heartbeat(opts_.heartbeat.interval_s, opts_.heartbeat.fn);
  }
  if (rec != nullptr) rec->restore_data_from(*src.builder_->recorder());
  snapshot::require_fully_rebound(sim(), "TrafficRun::fork");
}

TrafficRun::~TrafficRun() = default;

void TrafficRun::construct(const ScenarioSpec& spec, FlightRecorder* recorder) {
  builder_ = std::make_unique<WorldBuilder>(spec);
  world_ = builder_->build(recorder);
  engine_ = std::make_unique<TrafficEngine>(*world_, builder_->spec());
  engine_->telemetry = opts_.telemetry;
  engine_->heartbeat = &opts_.heartbeat;
}

Simulator& TrafficRun::sim() { return world_->sim(); }

FlightRecorder* TrafficRun::recorder() const { return builder_->recorder(); }

void TrafficRun::start() {
  assert(!started_);
  started_ = true;
  base_ = world_->sim().now();
  engine_->start();
  if (opts_.heartbeat.enabled()) {
    world_->sim().set_heartbeat(opts_.heartbeat.interval_s, opts_.heartbeat.fn);
  }
  events_before_ = world_->sim().events_processed();
}

void TrafficRun::run_to(TimePoint t) {
  if (finished_) return;
  const TimePoint end = engine_->end_time();
  world_->sim().run_until(t < end ? t : end);
}

bool TrafficRun::done() const {
  return finished_ || !(world_->sim().now() < engine_->end_time());
}

std::unique_ptr<TrafficRun> TrafficRun::fork() const {
  return std::unique_ptr<TrafficRun>(new TrafficRun(*this, ForkTag{}));
}

TrafficResult TrafficRun::finish() {
  if (!finished_) {
    world_->sim().run_until(engine_->end_time());
    if (world_->sim().heartbeat_attached()) world_->sim().set_heartbeat(0.0, nullptr);
    if (opts_.telemetry != nullptr) {
      opts_.telemetry->add(world_->sim(), events_before_, base_);
    }
    engine_->finish();
    finished_ = true;
  }
  return engine_->collect();
}

// --- forked scenario driver -------------------------------------------------

namespace {

// Shared out-params (a caller recorder, telemetry accumulation) cannot take
// concurrent cells; degrade those sweeps to serial.
SweepOptions effective_sweep(const SweepOptions& sweep, const ScenarioRunOptions& opts) {
  SweepOptions sw = sweep;
  if (opts.recorder != nullptr || opts.telemetry != nullptr) sw.jobs = 1;
  return sw;
}

struct WebCell {
  WebRunResult res;
  double page_load = 0.0;
};

}  // namespace

ScenarioOutcome run_scenario_forked(const ScenarioSpec& spec, double snapshot_at_s,
                                    const ScenarioRunOptions& opts,
                                    const SweepOptions& sweep) {
  return std::move(run_scenario_fork_k(spec, snapshot_at_s, 1, opts, sweep).front());
}

std::vector<ScenarioOutcome> run_scenario_fork_k(const ScenarioSpec& spec,
                                                 double snapshot_at_s, int k,
                                                 const ScenarioRunOptions& opts,
                                                 const SweepOptions& sweep) {
  if (k < 1) throw std::invalid_argument("run_scenario_fork_k: k must be >= 1");
  const auto kk = static_cast<std::size_t>(k);
  std::vector<ScenarioOutcome> outs(kk);
  for (ScenarioOutcome& o : outs) o.kind = spec.workload.kind;
  const TimePoint snap = TimePoint::origin() + Duration::from_seconds(snapshot_at_s);
  const SweepOptions sw = effective_sweep(sweep, opts);

  if (spec.traffic.enabled) {
    std::vector<std::unique_ptr<TrafficRun>> forks;
    {
      TrafficRun run(spec, opts);
      run.start();
      run.run_to(snap);
      for (std::size_t j = 0; j < kk; ++j) forks.push_back(run.fork());
    }
    for (std::size_t j = 0; j < kk; ++j) outs[j].traffic = forks[j]->finish();
    // A caller-supplied recorder only saw the prefix (each fork owns a
    // clone); wholesale-copy a finished fork's data back so the caller reads
    // exactly what an unforked run would have recorded.
    if (opts.recorder != nullptr && forks.front()->recorder() != nullptr) {
      opts.recorder->clone_from(*forks.front()->recorder());
    }
    return outs;
  }

  switch (spec.workload.kind) {
    case WorkloadKind::kStream: {
      const StreamingParams base = streaming_params_from_spec(spec, opts);
      const auto runs = static_cast<std::size_t>(spec.workload.runs);
      auto groups = sweep_map<std::vector<StreamingResult>>(
          runs,
          [&](std::size_t r) {
            StreamingParams p = base;
            p.seed = base.seed + r;
            std::vector<std::unique_ptr<StreamingRun>> forks;
            {
              StreamingRun run(p);
              run.start();
              run.run_to(snap);
              for (std::size_t j = 0; j < kk; ++j) forks.push_back(run.fork());
            }
            std::vector<StreamingResult> branch(kk);
            for (std::size_t j = 0; j < kk; ++j) branch[j] = forks[j]->finish();
            // See the traffic branch: publish a fork's recorder data back
            // into a caller recorder (the sweep is serial in that case, so
            // the next repetition's prefix sees this repetition's data
            // exactly as an unforked sequential run would).
            if (opts.recorder != nullptr && forks.front()->recorder() != nullptr) {
              opts.recorder->clone_from(*forks.front()->recorder());
            }
            return branch;
          },
          sw);
      for (std::size_t j = 0; j < kk; ++j) {
        std::vector<StreamingResult> reps(runs);
        for (std::size_t r = 0; r < runs; ++r) reps[r] = std::move(groups[r][j]);
        outs[j].streaming = aggregate_streaming(std::move(reps));
      }
      break;
    }
    case WorkloadKind::kDownload: {
      DownloadParams base = download_params_from_spec(spec);
      base.telemetry = opts.telemetry;
      base.heartbeat = opts.heartbeat;
      const auto runs = static_cast<std::size_t>(spec.workload.runs);
      auto groups = sweep_map<std::vector<DownloadResult>>(
          runs,
          [&](std::size_t r) {
            DownloadParams p = base;
            p.seed = base.seed + r + 1;  // run_download_samples advances first
            std::vector<std::unique_ptr<DownloadRun>> forks;
            {
              DownloadRun run(p);
              run.start();
              run.run_to(snap);
              for (std::size_t j = 0; j < kk; ++j) forks.push_back(run.fork());
            }
            std::vector<DownloadResult> branch(kk);
            for (std::size_t j = 0; j < kk; ++j) branch[j] = forks[j]->finish();
            return branch;
          },
          sw);
      for (std::size_t j = 0; j < kk; ++j) {
        bool capped = false;
        for (std::size_t r = 0; r < runs; ++r) {
          outs[j].download_completions.add(groups[r][j].completion.to_seconds());
          capped = capped || groups[r][j].capped;
          if (r + 1 == runs) outs[j].download = groups[r][j];
        }
        outs[j].download.capped = capped;
      }
      break;
    }
    case WorkloadKind::kWeb: {
      WebRunParams base = web_params_from_spec(spec);
      base.telemetry = opts.telemetry;
      base.heartbeat = opts.heartbeat;
      const auto runs = static_cast<std::size_t>(base.runs);
      auto groups = sweep_map<std::vector<WebCell>>(
          runs,
          [&](std::size_t r) {
            std::vector<std::unique_ptr<WebPageRun>> forks;
            {
              WebPageRun run(base, static_cast<int>(r));
              run.start();
              run.run_to(snap);
              for (std::size_t j = 0; j < kk; ++j) forks.push_back(run.fork());
            }
            std::vector<WebCell> branch(kk);
            for (std::size_t j = 0; j < kk; ++j) {
              forks[j]->finish(branch[j].res, branch[j].page_load);
            }
            return branch;
          },
          sw);
      for (std::size_t j = 0; j < kk; ++j) {
        double page_load_sum = 0.0;
        for (std::size_t r = 0; r < runs; ++r) {
          const WebCell& c = groups[r][j];
          outs[j].web.object_times.merge(c.res.object_times);
          outs[j].web.ooo_delay.merge(c.res.ooo_delay);
          outs[j].web.iw_resets += c.res.iw_resets;
          outs[j].web.capped = outs[j].web.capped || c.res.capped;
          page_load_sum += c.page_load;
        }
        outs[j].web.mean_page_load_s = page_load_sum / base.runs;
      }
      break;
    }
  }
  return outs;
}

// --- what-if scheduler grid -------------------------------------------------

std::vector<ScenarioOutcome> run_whatif_grid(const ScenarioSpec& spec,
                                             const std::vector<std::string>& schedulers,
                                             double switch_at_s, bool share_prefix,
                                             const ScenarioRunOptions& opts,
                                             const SweepOptions& sweep) {
  if (spec.traffic.enabled || (spec.workload.kind != WorkloadKind::kStream &&
                               spec.workload.kind != WorkloadKind::kDownload)) {
    throw std::invalid_argument(
        "run_whatif_grid: only stream and download workloads (single connection) support "
        "a scheduler switch");
  }
  const TimePoint switch_at = TimePoint::origin() + Duration::from_seconds(switch_at_s);
  const SweepOptions sw = effective_sweep(sweep, opts);
  const std::size_t k = schedulers.size();
  const auto runs = static_cast<std::size_t>(spec.workload.runs);

  std::vector<SchedulerFactory> factories;
  factories.reserve(k);
  for (const std::string& name : schedulers) factories.push_back(scheduler_factory(name));

  std::vector<ScenarioOutcome> out(k);
  for (ScenarioOutcome& o : out) o.kind = spec.workload.kind;
  if (k == 0 || runs == 0) return out;

  if (spec.workload.kind == WorkloadKind::kStream) {
    const StreamingParams base = streaming_params_from_spec(spec, opts);
    // cells[r * k + b]: repetition r diverged into branch b.
    std::vector<StreamingResult> cells(runs * k);
    if (share_prefix) {
      auto groups = sweep_map<std::vector<StreamingResult>>(
          runs,
          [&](std::size_t r) {
            StreamingParams p = base;
            p.seed = base.seed + r;
            StreamingRun prefix(p);
            prefix.start();
            prefix.run_to(switch_at);
            std::vector<StreamingResult> branch(k);
            for (std::size_t b = 0; b < k; ++b) {
              auto f = prefix.fork();
              f->set_scheduler(factories[b]);
              branch[b] = f->finish();
            }
            return branch;
          },
          sw);
      for (std::size_t r = 0; r < runs; ++r) {
        for (std::size_t b = 0; b < k; ++b) cells[r * k + b] = std::move(groups[r][b]);
      }
    } else {
      cells = sweep_map<StreamingResult>(
          runs * k,
          [&](std::size_t i) {
            const std::size_t r = i / k;
            const std::size_t b = i % k;
            StreamingParams p = base;
            p.seed = base.seed + r;
            StreamingRun run(p);
            run.start();
            run.run_to(switch_at);
            run.set_scheduler(factories[b]);
            return run.finish();
          },
          sw);
    }
    for (std::size_t b = 0; b < k; ++b) {
      std::vector<StreamingResult> reps(runs);
      for (std::size_t r = 0; r < runs; ++r) reps[r] = std::move(cells[r * k + b]);
      out[b].streaming = aggregate_streaming(std::move(reps));
    }
    return out;
  }

  // Download.
  DownloadParams base = download_params_from_spec(spec);
  base.telemetry = opts.telemetry;
  base.heartbeat = opts.heartbeat;
  std::vector<DownloadResult> cells(runs * k);
  if (share_prefix) {
    auto groups = sweep_map<std::vector<DownloadResult>>(
        runs,
        [&](std::size_t r) {
          DownloadParams p = base;
          p.seed = base.seed + r + 1;
          DownloadRun prefix(p);
          prefix.start();
          prefix.run_to(switch_at);
          std::vector<DownloadResult> branch(k);
          for (std::size_t b = 0; b < k; ++b) {
            auto f = prefix.fork();
            f->set_scheduler(factories[b]);
            branch[b] = f->finish();
          }
          return branch;
        },
        sw);
    for (std::size_t r = 0; r < runs; ++r) {
      for (std::size_t b = 0; b < k; ++b) cells[r * k + b] = std::move(groups[r][b]);
    }
  } else {
    cells = sweep_map<DownloadResult>(
        runs * k,
        [&](std::size_t i) {
          const std::size_t r = i / k;
          const std::size_t b = i % k;
          DownloadParams p = base;
          p.seed = base.seed + r + 1;
          DownloadRun run(p);
          run.start();
          run.run_to(switch_at);
          run.set_scheduler(factories[b]);
          return run.finish();
        },
        sw);
  }
  for (std::size_t b = 0; b < k; ++b) {
    bool capped = false;
    for (std::size_t r = 0; r < runs; ++r) {
      const DownloadResult& res = cells[r * k + b];
      out[b].download_completions.add(res.completion.to_seconds());
      capped = capped || res.capped;
      if (r + 1 == runs) out[b].download = res;
    }
    out[b].download.capped = capped;  // any run, as run_scenario reports it
  }
  return out;
}

}  // namespace mps
