#include "exp/snapshot.h"

#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/recorder.h"
#include "sched/registry.h"

namespace mps {

// --- TrafficRun -------------------------------------------------------------

TrafficRun::TrafficRun(const ScenarioSpec& spec, const ScenarioRunOptions& opts)
    : RunShell(opts.recorder, opts.telemetry, opts.heartbeat) {
  // As WorldBuilder::build, but the shell owns the recorder so it outlives
  // the world.
  if (rec_ == nullptr && (spec.record.collect_traces || spec.record.summarize)) own_recorder();
  construct(spec, nullptr);
}

TrafficRun::TrafficRun(const TrafficRun& src, ForkTag) : RunShell(src, ForkTag{}) {
  construct(src.builder_->spec(), &src);
}

TrafficRun::~TrafficRun() { discard_events(); }

void TrafficRun::construct(const ScenarioSpec& spec, const TrafficRun* src) {
  static constexpr const char* kWho = "TrafficRun::fork";
  builder_ = std::make_unique<WorldBuilder>(spec);
  world_ = builder_->build(rec_);
  if (src == nullptr) {
    engine_ = std::make_unique<TrafficEngine>(*world_, builder_->spec());
    return;
  }
  adopt_world(*src, kWho);
  engine_ = std::make_unique<TrafficEngine>(*src->engine_, *world_, builder_->spec());
  adopt(*src, kWho);
}

void TrafficRun::begin() {
  engine_->start();
  end_ = engine_->end_time();
}

std::unique_ptr<TrafficRun> TrafficRun::fork() const {
  return std::unique_ptr<TrafficRun>(new TrafficRun(*this, ForkTag{}));
}

TrafficResult TrafficRun::finish() {
  if (!done_) {
    settle();
    // Nothing runs after the horizon: drop the pending events before the
    // engine tears every live flow down, so none of them cancels its own.
    discard_events();
    engine_->finish();
    done_ = true;
  }
  return engine_->collect();
}

TrafficResult run_traffic(const ScenarioSpec& spec, FlightRecorder* recorder,
                          RunTelemetry* telemetry) {
  ScenarioRunOptions opts;
  opts.recorder = recorder;
  opts.telemetry = telemetry;
  TrafficRun run(spec, opts);
  run.start();
  return run.finish();
}

// --- the repetition driver ----------------------------------------------------

namespace {

// The one repetition driver behind run_scenario, run_scenario_forked,
// run_scenario_fork_k and run_whatif_grid. For each repetition of the spec's
// workload it builds the Run (seeds: stream seed+r, download seed+r+1, web
// seed+r; a traffic spec is one repetition), starts it and runs it to
// `split`, then branches `branches` ways — by fork, or by re-running the
// prefix from scratch — switching branch b to schedulers[b] when given.
// Every branch is finished and folded, in repetition order, into its own
// outcome. A caller recorder reads what an unforked run would have recorded:
// a fork's data is copied back after each forked repetition.
struct BranchPlan {
  std::optional<TimePoint> split;
  std::size_t branches = 1;
  bool fork = false;
  std::vector<SchedulerFactory> schedulers;  // empty, or one per branch
};

// Shared out-params (a caller recorder, telemetry accumulation) cannot take
// concurrent cells; degrade those sweeps to serial.
SweepOptions effective_sweep(const SweepOptions& sweep, const ScenarioRunOptions& opts) {
  SweepOptions sw = sweep;
  if (opts.recorder != nullptr || opts.telemetry != nullptr) sw.jobs = 1;
  return sw;
}

// Per workload kind: make(r) builds repetition r's Run, finish() turns a
// finished branch into a cell, and fold() folds one branch's cells, in
// repetition order, into its outcome.
struct StreamKind {
  StreamingParams base;
  std::unique_ptr<StreamingRun> make(std::size_t r) const {
    StreamingParams p = base;
    p.seed += r;
    return std::make_unique<StreamingRun>(p);
  }
  static StreamingResult finish(StreamingRun& run) { return run.finish(); }
  // Scalar metrics averaged over the repetitions, sample sets merged; capped
  // if any repetition was.
  static void fold(ScenarioOutcome& out, std::vector<StreamingResult>& reps) {
    StreamingResult& acc = out.streaming;
    acc = std::move(reps.front());
    for (std::size_t r = 1; r < reps.size(); ++r) {
      const StreamingResult& one = reps[r];
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
    if (reps.size() > 1) {
      const auto runs = static_cast<int>(reps.size());
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
  }
};

struct DownloadKind {
  DownloadParams base;
  std::unique_ptr<DownloadRun> make(std::size_t r) const {
    DownloadParams p = base;
    p.seed += r + 1;
    return std::make_unique<DownloadRun>(p);
  }
  static DownloadResult finish(DownloadRun& run) { return run.finish(); }
  // Per-run completion times and the last run's detail; capped if any run
  // was.
  static void fold(ScenarioOutcome& out, std::vector<DownloadResult>& reps) {
    bool capped = false;
    for (const DownloadResult& res : reps) {
      out.download_completions.add(res.completion.to_seconds());
      capped = capped || res.capped;
    }
    out.download = std::move(reps.back());
    out.download.capped = capped;
  }
};

struct WebKind {
  WebRunParams base;
  std::unique_ptr<WebPageRun> make(std::size_t r) const {
    return std::make_unique<WebPageRun>(base, static_cast<int>(r));
  }
  // One page load, its load time parked in mean_page_load_s until the fold.
  static WebRunResult finish(WebPageRun& run) {
    WebRunResult res;
    run.finish(res, res.mean_page_load_s);
    return res;
  }
  static void fold(ScenarioOutcome& out, std::vector<WebRunResult>& reps) {
    double page_load_sum = 0.0;
    for (const WebRunResult& res : reps) {
      out.web.object_times.merge(res.object_times);
      out.web.ooo_delay.merge(res.ooo_delay);
      out.web.iw_resets += res.iw_resets;
      out.web.capped = out.web.capped || res.capped;
      page_load_sum += res.mean_page_load_s;
    }
    out.web.mean_page_load_s = page_load_sum / static_cast<double>(reps.size());
  }
};

struct TrafficKind {
  const ScenarioSpec& spec;
  const ScenarioRunOptions& opts;
  std::unique_ptr<TrafficRun> make(std::size_t) const {
    return std::make_unique<TrafficRun>(spec, opts);
  }
  static TrafficResult finish(TrafficRun& run) { return run.finish(); }
  static void fold(ScenarioOutcome& out, std::vector<TrafficResult>& reps) {
    out.traffic = std::move(reps.front());
  }
};

template <typename Kind>
std::vector<ScenarioOutcome> drive(const Kind& kind, std::size_t runs,
                                   const ScenarioSpec& spec, const BranchPlan& plan,
                                   const ScenarioRunOptions& opts, const SweepOptions& sweep) {
  using Run = typename decltype(kind.make(0))::element_type;
  using Cell = decltype(Kind::finish(std::declval<Run&>()));
  const std::size_t k = plan.branches;
  if (k == 0) return {};
  const SweepOptions sw = effective_sweep(sweep, opts);
  const auto prefix = [&](std::size_t r) {
    std::unique_ptr<Run> run = kind.make(r);
    run->start();
    if (plan.split) run->run_to(*plan.split);
    return run;
  };
  const auto diverge = [&](Run& run, std::size_t b) {
    if (!plan.schedulers.empty()) run.set_scheduler(plan.schedulers[b]);
  };

  // cells[r * k + b]: repetition r, branch b.
  std::vector<Cell> cells(runs * k);
  if (plan.fork) {
    auto groups = sweep_map<std::vector<Cell>>(
        runs,
        [&](std::size_t r) {
          std::vector<std::unique_ptr<Run>> forks;
          {
            const std::unique_ptr<Run> run = prefix(r);
            for (std::size_t b = 0; b < k; ++b) {
              forks.push_back(run->fork());
              diverge(*forks.back(), b);
            }
          }
          std::vector<Cell> branch(k);
          for (std::size_t b = 0; b < k; ++b) branch[b] = Kind::finish(*forks[b]);
          // The caller recorder saw only the prefix (each fork owns a clone);
          // copy a finished fork's data back. The sweep is serial then, so
          // the next repetition's prefix sees this repetition's data exactly
          // as an unforked sequential run would.
          if (opts.recorder != nullptr && forks.front()->recorder() != nullptr) {
            opts.recorder->clone_from(*forks.front()->recorder());
          }
          return branch;
        },
        sw);
    for (std::size_t r = 0; r < runs; ++r) {
      for (std::size_t b = 0; b < k; ++b) cells[r * k + b] = std::move(groups[r][b]);
    }
  } else {
    cells = sweep_map<Cell>(
        runs * k,
        [&](std::size_t i) {
          const std::unique_ptr<Run> run = prefix(i / k);
          diverge(*run, i % k);
          return Kind::finish(*run);
        },
        sw);
  }

  std::vector<ScenarioOutcome> out(k);
  for (std::size_t b = 0; b < k; ++b) {
    out[b].kind = spec.workload.kind;
    if (runs == 0) continue;
    std::vector<Cell> reps(runs);
    for (std::size_t r = 0; r < runs; ++r) reps[r] = std::move(cells[r * k + b]);
    Kind::fold(out[b], reps);
  }
  return out;
}

std::vector<ScenarioOutcome> run_branches(const ScenarioSpec& spec, const BranchPlan& plan,
                                          const ScenarioRunOptions& opts,
                                          const SweepOptions& sweep) {
  if (spec.traffic.enabled) return drive(TrafficKind{spec, opts}, 1, spec, plan, opts, sweep);
  const auto runs = static_cast<std::size_t>(spec.workload.runs);
  switch (spec.workload.kind) {
    case WorkloadKind::kStream:
      return drive(StreamKind{streaming_params_from_spec(spec, opts)}, runs, spec, plan, opts,
                   sweep);
    case WorkloadKind::kDownload:
      return drive(DownloadKind{download_params_from_spec(spec, opts)}, runs, spec, plan, opts,
                   sweep);
    case WorkloadKind::kWeb:
      return drive(WebKind{web_params_from_spec(spec, opts)}, runs, spec, plan, opts, sweep);
  }
  return {};
}

}  // namespace

ScenarioOutcome run_scenario(const ScenarioSpec& spec, const ScenarioRunOptions& opts) {
  return std::move(run_branches(spec, BranchPlan{}, opts, SweepOptions{1}).front());
}

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
  BranchPlan plan;
  plan.split = TimePoint::origin() + Duration::from_seconds(snapshot_at_s);
  plan.branches = static_cast<std::size_t>(k);
  plan.fork = true;
  return run_branches(spec, plan, opts, sweep);
}

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
  BranchPlan plan;
  plan.split = TimePoint::origin() + Duration::from_seconds(switch_at_s);
  plan.branches = schedulers.size();
  plan.fork = share_prefix;
  for (const std::string& name : schedulers) plan.schedulers.push_back(scheduler_factory(name));
  return run_branches(spec, plan, opts, sweep);
}

}  // namespace mps
