// Scale benchmark: the world core at 1k / 10k / 100k concurrent MPTCP flows.
//
// Each cell runs the competing-traffic engine on a two-path testbed whose
// link capacity scales with the flow population (so per-flow activity stays
// constant and event load grows with flows), with Poisson connection churn
// exercising the arena slabs and exponential flow sizes mixing short
// completers with long-lived residents. Reported per cell, into
// BENCH_scale.json (scripts/bench_scale.sh drives the two-build flow):
//
//  * events, wall_s, events_per_sec — simulator kernel throughput, measured
//    in the plain Release build.
//  * mem_high_water_bytes, bytes_per_flow — resident memory per concurrent
//    flow, measured in a -DMPS_PROF=ON build via --mem-only, which re-runs
//    the cells for memory only and merges the numbers into an existing
//    report (keeping the fast build's events/sec).
//
// Modes:
//   bench_scale [--out FILE] [--cells N,N,...]   # timing cells (default)
//   bench_scale --mem-only IN.json [--out FILE]  # merge memory numbers
//   bench_scale --smoke                          # 1k-flow cell under the
//                                                # InvariantChecker; exits
//                                                # nonzero on any violation
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "exp/snapshot.h"
#include "obs/prof.h"
#include "obs/recorder.h"
#include "scenario/json.h"
#include "scenario/world.h"
#include "sim/simulator.h"
#include "traffic/engine.h"

namespace mps {
namespace {

ScenarioSpec scale_cell_spec(std::int64_t flows, double duration_s) {
  ScenarioSpec spec;
  spec.name = "scale_" + std::to_string(flows);
  // ~24 kbps of capacity per flow on each path: per-flow packet activity is
  // constant across cells, so kernel event load scales with the population.
  const double mbps = static_cast<double>(flows) * 0.024;
  spec.paths = {wifi_path(mbps), lte_path(mbps)};
  spec.scheduler = "default";
  spec.traffic.enabled = true;
  spec.traffic.flows = flows;
  // 5%/s connection churn keeps the arena recycling under load.
  spec.traffic.arrival_rate_per_s = static_cast<double>(flows) * 0.05;
  spec.traffic.max_arrivals = std::max<std::int64_t>(flows / 10, 16);
  // Mean flow size well above what a flow's capacity share drains within the
  // cell window: the run stays capacity-bound end to end, while the
  // exponential tail still completes (and churns) plenty of small flows.
  spec.traffic.flow_bytes = 256 * 1024;
  spec.traffic.size_dist = "exponential";
  spec.traffic.duration_s = duration_s;
  spec.seed = 7;
  return spec;
}

// Sim-seconds per cell, chosen so the 100k cell stays a single-process run
// of reasonable wall time while smaller cells accumulate enough events for
// a stable rate.
double cell_duration_s(std::int64_t flows) {
  if (flows >= 100'000) return 1.5;
  if (flows >= 10'000) return 6.0;
  return 20.0;
}

struct CellResult {
  std::int64_t flows = 0;
  double duration_s = 0.0;
  std::uint64_t events = 0;
  double wall_s = 0.0;
  std::size_t started = 0;
  std::size_t completed = 0;
  double goodput_mbps = 0.0;
  std::uint64_t mem_high_water = 0;  // MPS_PROF builds only
};

CellResult run_cell(std::int64_t flows) {
  CellResult r;
  r.flows = flows;
  r.duration_s = cell_duration_s(flows);
  const ScenarioSpec spec = scale_cell_spec(flows, r.duration_s);

  prof::reset();  // memory high-water restarts from the current live level
  const auto t0 = std::chrono::steady_clock::now();
  RunTelemetry telemetry;
  {
    const TrafficResult res = run_traffic(spec, nullptr, &telemetry);
    r.started = res.started;
    r.completed = res.completed;
    r.goodput_mbps = res.aggregate_goodput_mbps;
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.events = telemetry.events;
  r.mem_high_water = prof::snapshot().memory_total.high_water_bytes;
  return r;
}

Json cell_to_json(const CellResult& r) {
  Json j = Json::object();
  j.set("flows", Json::number(r.flows));
  j.set("duration_s", Json::number(r.duration_s));
  j.set("events", Json::number(static_cast<std::int64_t>(r.events)));
  j.set("wall_s", Json::number(r.wall_s));
  j.set("events_per_sec",
        Json::number(r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s : 0.0));
  j.set("started", Json::number(static_cast<std::int64_t>(r.started)));
  j.set("completed", Json::number(static_cast<std::int64_t>(r.completed)));
  j.set("goodput_mbps", Json::number(r.goodput_mbps));
  if (prof::compiled()) {
    j.set("mem_high_water_bytes", Json::number(static_cast<std::int64_t>(r.mem_high_water)));
    j.set("bytes_per_flow",
          Json::number(static_cast<double>(r.mem_high_water) / static_cast<double>(r.flows)));
  }
  return j;
}

int write_doc(const Json& doc, const std::string& path) {
  std::ofstream out(path);
  out << doc.dump(2) << "\n";
  if (!out) {
    std::fprintf(stderr, "bench_scale: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("bench_scale: wrote %s\n", path.c_str());
  return 0;
}

int run_timing(const std::vector<std::int64_t>& cells, const std::string& out_path) {
  Json doc = Json::object();
  doc.set("bench", Json::string("bench_scale"));
  Json arr = Json::array();
  for (const std::int64_t flows : cells) {
    std::printf("bench_scale: %lld flows...\n", static_cast<long long>(flows));
    std::fflush(stdout);
    const CellResult r = run_cell(flows);
    std::printf("  events=%llu wall=%.2fs events/sec=%.3g started=%zu completed=%zu\n",
                static_cast<unsigned long long>(r.events), r.wall_s,
                r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s : 0.0, r.started,
                r.completed);
    arr.push_back(cell_to_json(r));
  }
  doc.set("cells", std::move(arr));
  return write_doc(doc, out_path);
}

// Re-runs the cells listed in `in_path` for their memory numbers only and
// merges them into that report, preserving the timing fields.
int run_mem_merge(const std::string& in_path, const std::string& out_path) {
  if (!prof::compiled()) {
    std::fprintf(stderr,
                 "bench_scale: --mem-only requires a -DMPS_PROF=ON build "
                 "(memory accounting is compiled out)\n");
    return 1;
  }
  std::ifstream in(in_path);
  if (!in) {
    std::fprintf(stderr, "bench_scale: cannot read %s\n", in_path.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  Json doc = Json::parse(buf.str());
  for (Json& cell : (*doc.find("cells")).items()) {
    const std::int64_t flows = cell.find("flows")->as_int();
    std::printf("bench_scale: %lld flows (memory)...\n", static_cast<long long>(flows));
    std::fflush(stdout);
    const CellResult r = run_cell(flows);
    cell.set("mem_high_water_bytes",
             Json::number(static_cast<std::int64_t>(r.mem_high_water)));
    cell.set("bytes_per_flow", Json::number(static_cast<double>(r.mem_high_water) /
                                            static_cast<double>(flows)));
    std::printf("  high_water=%llu bytes/flow=%.0f\n",
                static_cast<unsigned long long>(r.mem_high_water),
                static_cast<double>(r.mem_high_water) / static_cast<double>(flows));
    const prof::Snapshot snap = prof::snapshot();
    for (std::size_t s = 0; s < prof::kMemSubsysCount; ++s) {
      const prof::MemStats& m = snap.memory[s];
      if (m.high_water_bytes == 0) continue;
      std::printf("    %-8s high_water=%llu live=%llu allocs=%llu\n",
                  prof::mem_subsys_name(static_cast<prof::MemSubsys>(s)),
                  static_cast<unsigned long long>(m.high_water_bytes),
                  static_cast<unsigned long long>(m.live_bytes),
                  static_cast<unsigned long long>(m.allocs));
    }
  }
  return write_doc(doc, out_path);
}

// 1k-flow cell with the flight recorder on and every live connection under
// the InvariantChecker — the scale configuration must not just run fast, it
// must still satisfy the protocol invariants.
int run_smoke() {
  const std::int64_t flows = 1000;
  ScenarioSpec spec = scale_cell_spec(flows, 1.0);
  FlightRecorder recorder;
  WorldBuilder builder(spec);
  auto world = builder.build(&recorder);
  InvariantChecker checker(world->sim());
  TrafficEngine engine(*world, spec);
  engine.on_flow_start = [&checker](Connection& c) { checker.watch(c); };
  engine.on_flow_end = [&checker](Connection& c) { checker.unwatch(c); };
  const TrafficResult res = engine.run();
  std::printf("bench_scale --smoke: started=%zu completed=%zu checks=%llu\n", res.started,
              res.completed, static_cast<unsigned long long>(checker.checks_run()));
  if (res.started < static_cast<std::size_t>(flows)) {
    std::fprintf(stderr, "bench_scale --smoke: only %zu/%lld flows started\n", res.started,
                 static_cast<long long>(flows));
    return 2;
  }
  if (!checker.ok()) {
    std::fprintf(stderr, "%s", checker.report().c_str());
    return 2;
  }
  std::printf("bench_scale --smoke: OK\n");
  return 0;
}

}  // namespace
}  // namespace mps

int main(int argc, char** argv) {
  std::string out_path = "BENCH_scale.json";
  std::string mem_in;
  bool smoke = false;
  std::vector<std::int64_t> cells = {1'000, 10'000, 100'000};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--mem-only" && i + 1 < argc) {
      mem_in = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--cells" && i + 1 < argc) {
      cells.clear();
      std::stringstream ss(argv[++i]);
      std::string tok;
      while (std::getline(ss, tok, ',')) cells.push_back(std::stoll(tok));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out FILE] [--cells N,N,...] [--mem-only IN.json] [--smoke]\n",
                   argv[0]);
      return 1;
    }
  }
  if (smoke) return mps::run_smoke();
  if (!mem_in.empty()) return mps::run_mem_merge(mem_in, out_path);
  return mps::run_timing(cells, out_path);
}
