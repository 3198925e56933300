// mps_run — execute a scenario spec file (scenarios/*.json).
//
//   mps_run <spec.json> [--set key=value]... [--print-spec]
//           [--prof-out FILE] [--progress[=SECS]]
//           [--snapshot-at=SECS] [--fork=K]
//
//   --set key=value   Override a field of the JSON document before it is
//                     parsed into a ScenarioSpec. `key` is a dotted path;
//                     array elements use [i]:
//                       --set scheduler=ecf
//                       --set workload.video_s=5
//                       --set paths[0].rate_mbps=0.3
//                     The value is parsed as JSON when possible (numbers,
//                     booleans, arrays), otherwise taken as a bare string.
//   --print-spec      Print the effective spec (defaults filled in,
//                     overrides applied) and exit without running.
//   --prof-out FILE   Write a ProfileReport (exp/prof_report.h, schema
//                     mps.profile.v1) for the run. Always valid JSON; the
//                     scope/memory tables carry data only when the binary
//                     was built with -DMPS_PROF=ON. Never changes stdout.
//   --progress[=SECS] Heartbeat to stderr roughly every SECS wall seconds
//                     (default 1.0) while the simulation runs: events/s,
//                     sim/wall ratio, flow counts when a recorder is
//                     attached. Driven purely by the wall clock, so it can
//                     never perturb the run (see Simulator::set_heartbeat).
//   --snapshot-at=SECS
//                     Snapshot-and-fork exercise (exp/snapshot.h): pause
//                     each repetition at sim time SECS, fork it, discard
//                     the original, and finish the fork. Output is
//                     byte-identical to the plain run — this flag smokes
//                     the fork machinery end to end (check.sh --snapshot).
//   --fork=K          With --snapshot-at: fork K copies at the snapshot
//                     point, finish all of them, and verify their rendered
//                     outcomes are identical before printing; a `fork-check`
//                     line reports the verdict to stderr.
//
// Exit status: 0 on success, 1 on a runtime error, 2 on bad usage or input
// (an unreadable or malformed spec file, a bad --set, a spec that fails
// validation), 3 when the run completed but is capped (a download reached
// its 600 s cap, a stream its 30 x video + 600 s cap or a page load its
// 3600 s cap before finishing; the output says so on a `capped:` line).
//
// The run goes through the same spec -> params conversion as the bench
// drivers (exp/scenario_run.h), so a preset that mirrors a bench cell
// reproduces that cell's numbers exactly.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "exp/prof_report.h"
#include "exp/scenario_run.h"
#include "exp/snapshot.h"
#include "obs/prof.h"
#include "obs/recorder.h"

namespace {

using mps::Json;

Json parse_override_value(const std::string& text) {
  try {
    return Json::parse(text);
  } catch (const mps::JsonError&) {
    return Json::string(text);  // bare words are strings: --set scheduler=ecf
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mps;

  const auto wall_start = std::chrono::steady_clock::now();

  if (argc < 2 || std::string(argv[1]) == "--help") {
    std::fprintf(stderr,
                 "usage: %s <spec.json> [--set key=value]... [--print-spec]\n"
                 "          [--prof-out FILE] [--progress[=SECS]]\n"
                 "  e.g. %s scenarios/tab02_rtt_cell.json --set scheduler=blest\n",
                 argv[0], argv[0]);
    return 2;
  }

  const std::string spec_path = argv[1];
  std::ifstream in(spec_path);
  if (!in) {
    std::fprintf(stderr, "mps_run: cannot open %s\n", spec_path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  bool print_spec = false;
  Json doc;
  try {
    doc = Json::parse(buf.str());
  } catch (const JsonError& e) {
    std::fprintf(stderr, "mps_run: %s: %s\n", spec_path.c_str(), e.what());
    return 2;
  }

  std::string prof_out;
  double progress_s = 0.0;
  double snapshot_at_s = -1.0;
  int fork_k = 1;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-spec") {
      print_spec = true;
    } else if (arg == "--prof-out" && i + 1 < argc) {
      prof_out = argv[++i];
    } else if (arg.rfind("--snapshot-at=", 0) == 0) {
      try {
        snapshot_at_s = std::stod(arg.substr(std::string("--snapshot-at=").size()));
      } catch (const std::exception&) {
        std::fprintf(stderr, "mps_run: bad --snapshot-at time '%s'\n", arg.c_str());
        return 2;
      }
      if (snapshot_at_s < 0.0) {
        std::fprintf(stderr, "mps_run: --snapshot-at must be >= 0\n");
        return 2;
      }
    } else if (arg.rfind("--fork=", 0) == 0) {
      try {
        fork_k = std::stoi(arg.substr(std::string("--fork=").size()));
      } catch (const std::exception&) {
        std::fprintf(stderr, "mps_run: bad --fork count '%s'\n", arg.c_str());
        return 2;
      }
      if (fork_k < 1) {
        std::fprintf(stderr, "mps_run: --fork must be >= 1\n");
        return 2;
      }
    } else if (arg == "--progress" || arg.rfind("--progress=", 0) == 0) {
      progress_s = 1.0;
      if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
        try {
          progress_s = std::stod(arg.substr(eq + 1));
        } catch (const std::exception&) {
          std::fprintf(stderr, "mps_run: bad --progress interval '%s'\n", arg.c_str());
          return 2;
        }
        if (progress_s <= 0.0) {
          std::fprintf(stderr, "mps_run: --progress interval must be > 0\n");
          return 2;
        }
      }
    } else if (arg == "--set" && i + 1 < argc) {
      const std::string kv = argv[++i];
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr, "mps_run: --set expects key=value, got '%s'\n", kv.c_str());
        return 2;
      }
      try {
        set_at_path(doc, kv.substr(0, eq), parse_override_value(kv.substr(eq + 1)));
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "mps_run: --set: %s\n", e.what());
        return 2;
      }
    } else {
      std::fprintf(stderr, "mps_run: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }

  ScenarioSpec spec;
  try {
    spec = scenario_from_json(doc);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mps_run: %s: %s\n", spec_path.c_str(), e.what());
    return 2;
  }

  if (print_spec) {
    std::printf("%s\n", serialize_scenario(spec).c_str());
    return 0;
  }

  if (!spec.name.empty()) std::printf("scenario: %s\n", spec.name.c_str());

  try {
    ScenarioRunOptions opts;
    FlightRecorder recorder;
    if (spec.record.summarize) opts.recorder = &recorder;
    RunTelemetry telemetry;
    if (!prof_out.empty()) opts.telemetry = &telemetry;
    if (progress_s > 0.0) {
      opts.heartbeat.interval_s = progress_s;
      FlightRecorder* rec = opts.recorder;
      opts.heartbeat.fn = [rec](const HeartbeatStats& hb) {
        std::fprintf(stderr, "progress: sim %.1f s, %llu events, %.0f ev/s, sim/wall %.2f",
                     hb.sim_s, static_cast<unsigned long long>(hb.events),
                     hb.events_per_sec, hb.sim_per_wall);
        if (rec != nullptr) {
          const std::uint64_t started = rec->metrics().total("traffic.flows_started");
          const std::uint64_t done = rec->metrics().total("traffic.flows_completed");
          if (started > 0) {
            std::fprintf(stderr, ", flows %llu live / %llu done",
                         static_cast<unsigned long long>(started - done),
                         static_cast<unsigned long long>(done));
          }
        }
        std::fputc('\n', stderr);
      };
    }
    ScenarioOutcome out;
    if (snapshot_at_s >= 0.0) {
      if (fork_k > 1) {
        const std::vector<ScenarioOutcome> forks =
            run_scenario_fork_k(spec, snapshot_at_s, fork_k, opts);
        const std::string first = format_outcome(spec, forks.front());
        int agree = 1;
        for (std::size_t j = 1; j < forks.size(); ++j) {
          if (format_outcome(spec, forks[j]) == first) ++agree;
        }
        std::fprintf(stderr, "fork-check: %d/%d forks at t=%.3fs identical%s\n", agree,
                     fork_k, snapshot_at_s, agree == fork_k ? "" : " -- MISMATCH");
        if (agree != fork_k) return 1;
        out = forks.front();
      } else {
        out = run_scenario_forked(spec, snapshot_at_s, opts);
      }
    } else if (fork_k > 1) {
      std::fprintf(stderr, "mps_run: --fork requires --snapshot-at\n");
      return 2;
    } else {
      out = run_scenario(spec, opts);
    }
    std::fputs(format_outcome(spec, out).c_str(), stdout);
    if (opts.recorder) {
      std::printf("\n--- flight recorder ---\n");
      std::ostringstream report;
      recorder.summarize(report);
      std::fputs(report.str().c_str(), stdout);
    }
    if (!prof_out.empty()) {
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
              .count();
      const std::uint64_t flows = spec.traffic.enabled ? out.traffic.started : 0;
      ProfileReport report =
          build_profile_report(prof::snapshot(), wall_s, &telemetry, flows);
      std::ofstream pf(prof_out);
      if (!pf) {
        std::fprintf(stderr, "mps_run: cannot write %s\n", prof_out.c_str());
        return 1;
      }
      pf << profile_report_to_json(report).dump(2) << "\n";
    }
    if (out.capped()) {
      std::fprintf(stderr, "mps_run: capped run: the workload did not complete\n");
      return 3;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mps_run: %s\n", e.what());
    return 1;
  }
  return 0;
}
