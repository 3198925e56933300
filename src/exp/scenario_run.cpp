#include "exp/scenario_run.h"

#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "exp/ideal.h"
#include "sched/registry.h"

namespace mps {

namespace {

void require_kind(const ScenarioSpec& spec, WorkloadKind kind, const char* fn) {
  if (spec.workload.kind != kind) {
    throw std::invalid_argument(std::string(fn) + ": spec workload kind is \"" +
                                workload_kind_name(spec.workload.kind) + "\", expected \"" +
                                workload_kind_name(kind) + "\"");
  }
}

void require_two_paths(const ScenarioSpec& spec, const char* fn) {
  if (spec.paths.size() != 2) {
    throw std::invalid_argument(std::string(fn) + ": the exp runners model exactly 2 paths " +
                                "(wifi primary, lte secondary); spec has " +
                                std::to_string(spec.paths.size()));
  }
}

// Download and web runs model constant-rate paths with one subflow each,
// and their results carry no time series: inputs asking otherwise are
// rejected rather than dropped.
void require_plain_paths(const ScenarioSpec& spec, const char* fn, const char* what) {
  for (const PathSpec& path : spec.paths) {
    if (path.variation.kind != VariationKind::kNone) {
      throw std::invalid_argument(std::string(fn) + ": bandwidth variation is not supported for " +
                                  what);
    }
  }
  if (spec.subflows_per_path != 1) {
    throw std::invalid_argument(std::string(fn) + ": " + what + " use 1 subflow per path");
  }
  if (spec.record.collect_traces) {
    throw std::invalid_argument(std::string(fn) + ": record.collect_traces is not supported for " +
                                what + " (the result carries no time series)");
  }
}

// The fields every runner takes: WorldBuilder's resolved world and
// connection template, the scheduler, path management and `opts`.
void fill_common(RunParams& p, const ScenarioSpec& spec, const ScenarioRunOptions& opts,
                 const char* fn) {
  const WorldBuilder b(spec);
  p.paths = b.path_configs();
  p.traces = b.path_traces();
  p.subflows_per_path = static_cast<int>(spec.subflows_per_path);
  p.conn = b.conn_config();
  p.scheduler = opts.scheduler_override ? opts.scheduler_override
                                        : scheduler_factory(spec.scheduler);
  p.seed = spec.seed;
  if (spec.path_manager.enabled) {
    p.path_manager = path_manager_config_from_spec(spec.path_manager);
    if (spec.path_manager.backup.enabled) {
      p.initial_paths = initial_path_indices(spec.path_manager, spec.paths.size());
      if (p.initial_paths.empty()) {
        throw std::invalid_argument(std::string(fn) + ": every path is a backup path");
      }
    }
  }
  p.recorder = opts.recorder;
  p.telemetry = opts.telemetry;
  p.heartbeat = opts.heartbeat;
}

}  // namespace

StreamingParams streaming_params_from_spec(const ScenarioSpec& spec,
                                           const ScenarioRunOptions& opts) {
  const char* fn = "streaming_params_from_spec";
  require_kind(spec, WorkloadKind::kStream, fn);
  require_two_paths(spec, fn);
  StreamingParams p;
  fill_common(p, spec, opts, fn);
  p.video = Duration::from_seconds(spec.workload.video_s);
  p.abr = spec.workload.abr == "rate" ? AbrKind::kRateBased : AbrKind::kBufferBased;
  p.collect_traces = spec.record.collect_traces;
  return p;
}

DownloadParams download_params_from_spec(const ScenarioSpec& spec,
                                         const ScenarioRunOptions& opts) {
  const char* fn = "download_params_from_spec";
  require_kind(spec, WorkloadKind::kDownload, fn);
  if (spec.paths.size() < 2) {
    throw std::invalid_argument("download_params_from_spec: need at least 2 paths");
  }
  require_plain_paths(spec, fn, "downloads");
  DownloadParams p;
  fill_common(p, spec, opts, fn);
  p.bytes = static_cast<std::uint64_t>(spec.workload.bytes);
  return p;
}

WebRunParams web_params_from_spec(const ScenarioSpec& spec, const ScenarioRunOptions& opts) {
  const char* fn = "web_params_from_spec";
  require_kind(spec, WorkloadKind::kWeb, fn);
  require_two_paths(spec, fn);
  require_plain_paths(spec, fn, "web runs");
  if (spec.path_manager.enabled) {
    throw std::invalid_argument(
        "web_params_from_spec: path_manager is not supported for web runs (one page load "
        "uses several connections)");
  }
  WebRunParams p;
  fill_common(p, spec, opts, fn);
  p.runs = static_cast<int>(spec.workload.runs);
  return p;
}

StreamingResult run_streaming(const ScenarioSpec& spec, const ScenarioRunOptions& opts) {
  return run_streaming(streaming_params_from_spec(spec, opts));
}

DownloadResult run_download(const ScenarioSpec& spec) {
  return run_download(download_params_from_spec(spec));
}

WebRunResult run_web(const ScenarioSpec& spec) { return run_scenario(spec).web; }

namespace {

#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void appendf(std::string& out, const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

// A stream path's label: the spec's Mbps literal (DESIGN §8.1: to_mbps()
// is not bit-exact), or for a random path its trace's first level.
double label_mbps(const WorldBuilder& b, std::size_t i) {
  const PathSpec& p = b.spec().paths[i];
  return p.variation.kind == VariationKind::kRandom ? b.path_traces()[i].front().rate.to_mbps()
                                                    : p.rate_mbps;
}

std::string format_traffic(const ScenarioSpec& spec, const TrafficResult& t) {
  std::size_t mptcp_started = 0;
  std::size_t cross_flows = 0;
  for (const TrafficFlowRecord& f : t.flows) {
    if (f.cross) ++cross_flows;
    else if (f.started) ++mptcp_started;
  }
  std::string s;
  appendf(s, "traffic %s: %lld initial + %zu churned + %zu cross flows, %.1f s\n",
          spec.scheduler.c_str(), static_cast<long long>(spec.traffic.flows), t.churned,
          cross_flows, t.duration_s);
  appendf(s, "  agg goodput %.2f Mbps (mptcp %.2f, cross %.2f), capacity %.1f, util %.2f\n",
          t.aggregate_goodput_mbps, t.mptcp_goodput_mbps, t.cross_goodput_mbps,
          t.capacity_mbps, t.utilization);
  appendf(s,
          "  jain %.3f over %zu mptcp flows, completed %zu, fct mean/p95 %.3f/%.3f s, "
          "orphans %llu\n",
          t.jain, mptcp_started, t.completed, t.completion_s.mean(),
          t.completion_s.quantile(0.95), static_cast<unsigned long long>(t.orphans));
  return s;
}

}  // namespace

std::string format_outcome(const ScenarioSpec& spec, const ScenarioOutcome& out) {
  std::string s;
  if (spec.traffic.enabled) return format_traffic(spec, out.traffic);
  switch (out.kind) {
    case WorkloadKind::kStream: {
      const WorldBuilder b(spec);
      const double wifi_mbps = label_mbps(b, 0);
      const double lte_mbps = label_mbps(b, 1);
      const StreamingResult& r = out.streaming;
      appendf(s,
              "stream %s %.2f/%.2f Mbps (%lld run%s): bitrate %.2f Mbps (ideal %.2f),\n"
              "  tput %.2f Mbps, fast-path fraction %.2f, lte IW resets %llu,\n"
              "  rtt wifi/lte %.0f/%.0f ms, ooo p50/p99 %.3f/%.3f s, rebuffer %.1f s\n",
              spec.scheduler.c_str(), wifi_mbps, lte_mbps,
              static_cast<long long>(spec.workload.runs), spec.workload.runs == 1 ? "" : "s",
              r.mean_bitrate_mbps, ideal_bitrate_mbps(wifi_mbps, lte_mbps),
              r.mean_throughput_mbps, r.fraction_fast,
              static_cast<unsigned long long>(r.iw_resets_lte), r.mean_rtt_wifi_ms,
              r.mean_rtt_lte_ms, r.ooo_delay.quantile(0.5), r.ooo_delay.quantile(0.99),
              r.rebuffer_time.to_seconds());
      if (r.capped) {
        appendf(s, "  capped: a run reached the 30 x video + 600 s cap before its session "
                   "finished\n");
      }
      break;
    }
    case WorkloadKind::kDownload:
      appendf(s, "download %s %lld bytes (%lld run%s): mean %.3f s",
              spec.scheduler.c_str(), static_cast<long long>(spec.workload.bytes),
              static_cast<long long>(spec.workload.runs), spec.workload.runs == 1 ? "" : "s",
              out.download_completions.mean());
      if (spec.workload.runs > 1) {
        appendf(s, " (min %.3f, max %.3f)", out.download_completions.min(),
                out.download_completions.max());
      }
      appendf(s, ", fast-path fraction %.2f\n", out.download.fraction_fast);
      if (out.download.capped) {
        appendf(s, "  capped: a run reached the 600 s cap before its download completed\n");
      }
      break;
    case WorkloadKind::kWeb: {
      const WebRunResult& r = out.web;
      appendf(s,
              "web %s (%lld run%s): page %.2f s, object mean/p90/p99 %.3f/%.3f/%.3f s, "
              "ooo p99 %.3f s\n",
              spec.scheduler.c_str(), static_cast<long long>(spec.workload.runs),
              spec.workload.runs == 1 ? "" : "s", r.mean_page_load_s, r.object_times.mean(),
              r.object_times.quantile(0.9), r.object_times.quantile(0.99),
              r.ooo_delay.quantile(0.99));
      if (r.capped) {
        appendf(s, "  capped: a run reached the 3600 s cap before its page finished loading\n");
      }
      break;
    }
  }
  return s;
}

}  // namespace mps
