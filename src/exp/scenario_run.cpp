#include "exp/scenario_run.h"

#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "exp/ideal.h"
#include "tcp/cc_registry.h"

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

// Label rate for a pure-profile path: the spec's Mbps literal, except that a
// random-bandwidth path is labelled by its trace's first level — both exactly
// as the hand-wired bench drivers computed them.
double pure_label_mbps(const PathSpec& p, const std::vector<RateChange>& trace) {
  if (p.variation.kind == VariationKind::kRandom && !trace.empty()) {
    return trace.front().rate.to_mbps();
  }
  return p.rate_mbps;
}

}  // namespace

StreamingParams streaming_params_from_spec(const ScenarioSpec& spec,
                                           const ScenarioRunOptions& opts) {
  require_kind(spec, WorkloadKind::kStream, "streaming_params_from_spec");
  require_two_paths(spec, "streaming_params_from_spec");
  WorldBuilder b(spec);

  StreamingParams p;
  const bool pure = b.pure_profile(0) && b.pure_profile(1);
  p.use_path_overrides = !pure;
  if (pure) {
    p.wifi_mbps = pure_label_mbps(spec.paths[0], b.path_traces()[0]);
    p.lte_mbps = pure_label_mbps(spec.paths[1], b.path_traces()[1]);
  } else {
    p.wifi_override = b.path_configs()[0];
    p.lte_override = b.path_configs()[1];
    p.wifi_mbps = p.wifi_override.down_rate.to_mbps();
    p.lte_mbps = p.lte_override.down_rate.to_mbps();
  }
  p.wifi_trace = b.path_traces()[0];
  p.lte_trace = b.path_traces()[1];
  p.scheduler = spec.scheduler;
  p.scheduler_override = opts.scheduler_override;
  p.cc = cc_kind_from_name(spec.conn.cc);
  p.staging_bytes = static_cast<std::uint64_t>(spec.conn.staging_bytes);
  p.idle_cwnd_reset = spec.conn.idle_cwnd_reset;
  p.opportunistic_rtx = spec.conn.opportunistic_rtx;
  p.penalization = spec.conn.penalization;
  p.video = Duration::from_seconds(spec.workload.video_s);
  p.abr = spec.workload.abr == "rate" ? AbrKind::kRateBased : AbrKind::kBufferBased;
  p.subflows_per_path = static_cast<int>(spec.subflows_per_path);
  p.seed = spec.seed;
  p.collect_traces = spec.record.collect_traces;
  p.recorder = opts.recorder;
  p.telemetry = opts.telemetry;
  p.heartbeat = opts.heartbeat;
  if (spec.path_manager.enabled) {
    p.use_path_manager = true;
    p.path_manager = path_manager_config_from_spec(spec.path_manager);
    if (spec.path_manager.backup.enabled) {
      p.initial_paths = initial_path_indices(spec.path_manager, spec.paths.size());
      if (p.initial_paths.empty()) {
        throw std::invalid_argument(
            "streaming_params_from_spec: every path is a backup path");
      }
    }
  }
  return p;
}

DownloadParams download_params_from_spec(const ScenarioSpec& spec) {
  require_kind(spec, WorkloadKind::kDownload, "download_params_from_spec");
  if (spec.paths.size() < 2) {
    throw std::invalid_argument("download_params_from_spec: need at least 2 paths");
  }
  WorldBuilder b(spec);
  for (const PathSpec& path : spec.paths) {
    if (path.variation.kind != VariationKind::kNone) {
      throw std::invalid_argument(
          "download_params_from_spec: bandwidth variation is not supported for downloads");
    }
  }
  if (spec.subflows_per_path != 1) {
    throw std::invalid_argument(
        "download_params_from_spec: downloads use 1 subflow per path");
  }

  DownloadParams p;
  // The historical two-path pure-profile form keeps the legacy construction
  // (bench/golden byte-identity); anything else — more paths, tweaked path
  // knobs — ships resolved PathConfigs to the runner's N-path world.
  if (spec.paths.size() == 2 && b.pure_profile(0) && b.pure_profile(1)) {
    p.wifi_mbps = spec.paths[0].rate_mbps;
    p.lte_mbps = spec.paths[1].rate_mbps;
  } else {
    p.paths = b.path_configs();
  }
  p.bytes = static_cast<std::uint64_t>(spec.workload.bytes);
  p.scheduler = spec.scheduler;
  p.cc = cc_kind_from_name(spec.conn.cc);
  p.seed = spec.seed;
  if (spec.path_manager.enabled) {
    p.use_path_manager = true;
    p.path_manager = path_manager_config_from_spec(spec.path_manager);
    if (spec.path_manager.backup.enabled) {
      p.initial_paths = initial_path_indices(spec.path_manager, spec.paths.size());
      if (p.initial_paths.empty()) {
        throw std::invalid_argument(
            "download_params_from_spec: every path is a backup path");
      }
    }
  }
  return p;
}

WebRunParams web_params_from_spec(const ScenarioSpec& spec) {
  require_kind(spec, WorkloadKind::kWeb, "web_params_from_spec");
  require_two_paths(spec, "web_params_from_spec");
  WorldBuilder b(spec);
  for (const PathSpec& path : spec.paths) {
    if (path.variation.kind != VariationKind::kNone) {
      throw std::invalid_argument(
          "web_params_from_spec: bandwidth variation is not supported for web runs");
    }
  }
  if (spec.subflows_per_path != 1) {
    throw std::invalid_argument("web_params_from_spec: web runs use 1 subflow per path");
  }

  WebRunParams p;
  const bool pure = b.pure_profile(0) && b.pure_profile(1);
  p.use_path_overrides = !pure;
  if (pure) {
    p.wifi_mbps = spec.paths[0].rate_mbps;
    p.lte_mbps = spec.paths[1].rate_mbps;
  } else {
    p.wifi_override = b.path_configs()[0];
    p.lte_override = b.path_configs()[1];
  }
  p.scheduler = spec.scheduler;
  p.cc = cc_kind_from_name(spec.conn.cc);
  p.seed = spec.seed;
  p.runs = static_cast<int>(spec.workload.runs);
  return p;
}

StreamingResult run_streaming(const ScenarioSpec& spec, const ScenarioRunOptions& opts) {
  return run_streaming(streaming_params_from_spec(spec, opts));
}

DownloadResult run_download(const ScenarioSpec& spec) {
  return run_download(download_params_from_spec(spec));
}

WebRunResult run_web(const ScenarioSpec& spec) {
  return run_web(web_params_from_spec(spec));
}

ScenarioOutcome run_scenario(const ScenarioSpec& spec, const ScenarioRunOptions& opts) {
  ScenarioOutcome out;
  out.kind = spec.workload.kind;
  if (spec.traffic.enabled) {
    out.traffic = run_traffic(spec, opts.recorder, opts.telemetry, &opts.heartbeat);
    return out;
  }
  switch (spec.workload.kind) {
    case WorkloadKind::kStream:
      out.streaming = run_streaming_avg(streaming_params_from_spec(spec, opts),
                                        static_cast<int>(spec.workload.runs));
      break;
    case WorkloadKind::kDownload: {
      // Mirrors run_download_samples' seed advance (seed+1 before each run)
      // while also keeping the last run's detail.
      DownloadParams p = download_params_from_spec(spec);
      p.telemetry = opts.telemetry;
      p.heartbeat = opts.heartbeat;
      bool capped = false;
      for (std::int64_t r = 0; r < spec.workload.runs; ++r) {
        p.seed += 1;
        out.download = run_download(p);
        out.download_completions.add(out.download.completion.to_seconds());
        capped = capped || out.download.capped;
      }
      out.download.capped = capped;  // any run, not only the last
      break;
    }
    case WorkloadKind::kWeb: {
      WebRunParams p = web_params_from_spec(spec);
      p.telemetry = opts.telemetry;
      p.heartbeat = opts.heartbeat;
      out.web = run_web(p);
      break;
    }
  }
  return out;
}

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
      const StreamingParams p = streaming_params_from_spec(spec);
      const StreamingResult& r = out.streaming;
      appendf(s,
              "stream %s %.2f/%.2f Mbps (%lld run%s): bitrate %.2f Mbps (ideal %.2f),\n"
              "  tput %.2f Mbps, fast-path fraction %.2f, lte IW resets %llu,\n"
              "  rtt wifi/lte %.0f/%.0f ms, ooo p50/p99 %.3f/%.3f s, rebuffer %.1f s\n",
              spec.scheduler.c_str(), p.wifi_mbps, p.lte_mbps,
              static_cast<long long>(spec.workload.runs), spec.workload.runs == 1 ? "" : "s",
              r.mean_bitrate_mbps, ideal_bitrate_mbps(p.wifi_mbps, p.lte_mbps),
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
