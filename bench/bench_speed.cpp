// Performance microbench: the repo's perf trajectory anchor.
//
// Two measurements, written to BENCH_speed.json (path overridable as
// argv[1]) so successive PRs can compare:
//
//  * kernel: events/sec through the EventQueue under the stack's dominant
//    churn pattern (every pop schedules a near-future replacement and
//    restarts a far-future RTO-style timer via cancel+reschedule).
//  * grid: wall-clock for the Fig. 9 reference sweep (6x6 bandwidth grid x
//    4 schedulers) at jobs = 1, 4, and MPS_BENCH_JOBS (default: hardware
//    concurrency), deduplicated, in one invocation — each run carries the
//    SweepRunner's per-worker busy/wait/idle telemetry so the grid speedup
//    (or its absence) is explained, not just reported, and the last run's
//    telemetry feeds --prof-out. The suite's own end-to-end wall time is
//    scripts/bench_suite.sh's BENCH_suite.json.
//  * prefix_dedupe: wall-clock for a what-if scheduler grid (one prefix,
//    four divergent suffixes; exp/snapshot.h) with the shared prefix
//    simulated once and forked vs every branch run from scratch. Both modes
//    are byte-identical by construction; this cell measures the speedup the
//    snapshot-and-fork machinery buys.
//
// With --prof-out FILE, additionally writes a ProfileReport
// (exp/prof_report.h) carrying the profiler scope/memory tables (populated
// under -DMPS_PROF=ON) and the final grid run's worker telemetry.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "bench/common.h"
#include "exp/prof_report.h"
#include "exp/snapshot.h"
#include "obs/prof.h"
#include "scenario/json.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace mps::bench {
namespace {

// ---- kernel churn ----------------------------------------------------------

constexpr std::size_t kLiveTransmissions = 1024;
constexpr std::size_t kLiveTimers = 256;
constexpr std::uint64_t kChurnPops = 1'000'000;

// Keeps the churn payload observable so the loop can't be optimized away.
volatile std::uint64_t g_churn_sink = 0;

// Each pop: fire, schedule a near-future replacement (a link transmission),
// and restart one far-future timer (the per-ACK RTO pattern). Capture three
// words, the typical closure size across the stack.
double churn_events_per_sec() {
  EventQueue q;
  std::uint64_t sink = 0;
  std::uint64_t now_ns = 0;
  std::uint64_t ticks = 0;
  Rng rng(42);
  auto payload = [&sink, &now_ns, &ticks] { sink += now_ns + ++ticks; };

  std::vector<EventId> timer_ids(kLiveTimers);
  for (std::size_t i = 0; i < kLiveTransmissions; ++i) {
    q.schedule(TimePoint::from_ns(static_cast<std::int64_t>(1 + rng.uniform_int(1'000'000))),
               payload);
  }
  for (std::size_t i = 0; i < kLiveTimers; ++i) {
    timer_ids[i] = q.schedule(
        TimePoint::from_ns(static_cast<std::int64_t>(200'000'000 + rng.uniform_int(1'000'000))),
        payload);
  }

  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t pops = 0; pops < kChurnPops; ++pops) {
    auto fired = q.pop();
    now_ns = static_cast<std::uint64_t>(fired.when.ns());
    fired.fn();
    // Replacement transmission, 50us..1ms out.
    q.schedule(
        TimePoint::from_ns(static_cast<std::int64_t>(now_ns + 50'000 + rng.uniform_int(950'000))),
        payload);
    // RTO restart: cancel + reschedule 200ms out.
    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(kLiveTimers));
    q.cancel(timer_ids[k]);
    timer_ids[k] = q.schedule(
        TimePoint::from_ns(static_cast<std::int64_t>(now_ns + 200'000'000)), payload);
  }
  const auto stop = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(stop - start).count();
  g_churn_sink = sink;
  // Reported as pops/sec so the number maps directly to Simulator events/sec
  // (each pop also carries one schedule and one cancel+reschedule).
  return static_cast<double>(kChurnPops) / secs;
}

// ---- reference grid --------------------------------------------------------

struct GridRun {
  int jobs = 0;
  double seconds = 0.0;
  SweepTelemetry telemetry;
};

GridRun grid_sweep(int jobs) {
  const auto& grid = paper_bandwidth_grid();
  const auto& scheds = paper_schedulers();
  const std::size_t n = grid.size();
  const std::size_t cells = scheds.size() * n * n;
  const auto start = std::chrono::steady_clock::now();
  SweepRunner runner(SweepOptions{jobs});
  std::vector<double> out(cells);
  runner.run(cells, [&](std::size_t i) {
    const std::size_t s = i / (n * n);
    const std::size_t w = (i % (n * n)) / n;
    const std::size_t l = i % n;
    const ScenarioSpec spec = streaming_spec(grid[w], grid[l], scheds[s]);
    out[i] = run_scenario(spec).streaming.mean_bitrate_mbps;
  });
  const auto stop = std::chrono::steady_clock::now();
  GridRun r;
  r.jobs = jobs;
  r.seconds = std::chrono::duration<double>(stop - start).count();
  r.telemetry = runner.telemetry();
  return r;
}

// ---- prefix-dedupe what-if grid --------------------------------------------

struct WhatIfRun {
  double seconds = 0.0;
  std::vector<ScenarioOutcome> outcomes;
};

// Serial (jobs=1) on purpose: the cell measures the algorithmic win of
// sharing the prefix, not thread-pool scaling (the grid runs above cover
// that).
WhatIfRun whatif_sweep(const ScenarioSpec& spec, const std::vector<std::string>& scheds,
                       double switch_at_s, bool share_prefix) {
  const auto start = std::chrono::steady_clock::now();
  WhatIfRun r;
  r.outcomes = run_whatif_grid(spec, scheds, switch_at_s, share_prefix, {}, SweepOptions{1});
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return r;
}

Json telemetry_to_json(const SweepTelemetry& t) {
  Json j = Json::object();
  j.set("wall_ns", Json::number(static_cast<std::int64_t>(t.wall_ns)));
  Json per = Json::array();
  for (const WorkerStats& w : t.workers) {
    Json e = Json::object();
    e.set("busy_ns", Json::number(static_cast<std::int64_t>(w.busy_ns)));
    e.set("wait_ns", Json::number(static_cast<std::int64_t>(w.wait_ns)));
    e.set("idle_ns", Json::number(static_cast<std::int64_t>(w.idle_ns)));
    e.set("cells", Json::number(static_cast<std::int64_t>(w.cells)));
    per.push_back(std::move(e));
  }
  j.set("per_worker", per);
  return j;
}

}  // namespace
}  // namespace mps::bench

int main(int argc, char** argv) {
  using namespace mps;
  using namespace mps::bench;

  const auto wall_start = std::chrono::steady_clock::now();
  const char* out_path = "BENCH_speed.json";
  std::string prof_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--prof-out" && i + 1 < argc) {
      prof_out = argv[++i];
    } else {
      out_path = argv[i];
    }
  }
  print_header(std::cout, "bench_speed",
               "perf microbench — kernel events/sec + Fig. 9 grid cells/sec", scale_note());

  std::printf("\nkernel churn (%llu pops, %zu live transmissions, %zu timers):\n",
              static_cast<unsigned long long>(kChurnPops), kLiveTransmissions, kLiveTimers);
  const double eps = churn_events_per_sec();
  std::printf("  event queue     %12.0f events/s\n", eps);

  const auto& grid = paper_bandwidth_grid();
  const int cells = static_cast<int>(paper_schedulers().size() * grid.size() * grid.size());
  const int hw_jobs = sweep_jobs();

  // jobs = 1, 4, hw in one invocation (deduplicated, order kept) so the
  // speedup curve and its worker telemetry land in a single file.
  std::vector<int> deduped;
  for (int j : {1, 4, hw_jobs}) {
    if (std::find(deduped.begin(), deduped.end(), j) == deduped.end()) deduped.push_back(j);
  }

  std::printf("\nFig. 9 reference grid (%d cells, hw=%d):\n", cells, hw_jobs);
  std::vector<GridRun> runs;
  for (int j : deduped) runs.push_back(grid_sweep(j));
  const double serial_s = runs.front().seconds;
  for (const GridRun& r : runs) {
    std::uint64_t busy_ns = 0;
    for (const WorkerStats& w : r.telemetry.workers) busy_ns += w.busy_ns;
    const double util = r.telemetry.wall_ns > 0
                            ? static_cast<double>(busy_ns) /
                                  (static_cast<double>(r.telemetry.wall_ns) *
                                   static_cast<double>(r.telemetry.workers.size()))
                            : 0.0;
    std::printf("  %2d job(s)       %8.2f s  (%.1f cells/s, %.2fx, worker busy %.0f%%)\n",
                r.jobs, r.seconds, cells / r.seconds, serial_s / r.seconds, util * 100.0);
  }

  // What-if scheduler grid: all four schedulers diverge from one minrtt
  // prefix at 75% of the video, so the shared-prefix mode simulates ~3/4 of
  // the work once instead of four times.
  const std::vector<std::string> whatif_scheds = {"minrtt", "ecf", "blest", "daps"};
  const double video_s = bench_scale().video.to_seconds();
  const double switch_at_s = 0.75 * video_s;
  const ScenarioSpec whatif_spec = streaming_spec(2.0, 8.0, "minrtt");
  std::printf(
      "\nprefix-dedupe what-if grid (%zu schedulers, switch at %.0f of %.0f s, %lld rep(s)):\n",
      whatif_scheds.size(), switch_at_s, video_s,
      static_cast<long long>(whatif_spec.workload.runs));
  const WhatIfRun scratch = whatif_sweep(whatif_spec, whatif_scheds, switch_at_s, false);
  const WhatIfRun shared = whatif_sweep(whatif_spec, whatif_scheds, switch_at_s, true);
  bool whatif_identical = scratch.outcomes.size() == shared.outcomes.size();
  for (std::size_t i = 0; whatif_identical && i < scratch.outcomes.size(); ++i) {
    whatif_identical = format_outcome(whatif_spec, scratch.outcomes[i]) ==
                       format_outcome(whatif_spec, shared.outcomes[i]);
  }
  std::printf("  scratch         %8.2f s\n", scratch.seconds);
  std::printf("  shared prefix   %8.2f s  (%.2fx, outcomes %s)\n", shared.seconds,
              scratch.seconds / shared.seconds, whatif_identical ? "identical" : "MISMATCH");

  Json doc = Json::object();
  doc.set("bench", Json::string("bench_speed"));
  doc.set("scale", Json::string(bench_scale().name));
  Json kernel = Json::object();
  kernel.set("pops", Json::number(static_cast<std::int64_t>(kChurnPops)));
  kernel.set("live_transmissions", Json::number(static_cast<std::int64_t>(kLiveTransmissions)));
  kernel.set("live_timers", Json::number(static_cast<std::int64_t>(kLiveTimers)));
  kernel.set("events_per_sec", Json::number(eps));
  doc.set("kernel", kernel);

  Json grid_doc = Json::object();
  grid_doc.set("cells", Json::number(static_cast<std::int64_t>(cells)));
  grid_doc.set("hw_jobs", Json::number(static_cast<std::int64_t>(hw_jobs)));
  Json runs_doc = Json::array();
  for (const GridRun& r : runs) {
    Json e = Json::object();
    e.set("jobs", Json::number(static_cast<std::int64_t>(r.jobs)));
    e.set("seconds", Json::number(r.seconds));
    e.set("cells_per_sec", Json::number(cells / r.seconds));
    e.set("speedup_vs_serial", Json::number(serial_s / r.seconds));
    e.set("workers", telemetry_to_json(r.telemetry));
    runs_doc.push_back(std::move(e));
  }
  grid_doc.set("runs", runs_doc);
  // Trajectory anchor: serial time and the final (hw-jobs) run's speedup keep
  // their old names so PR-over-PR comparisons still line up.
  grid_doc.set("serial_s", Json::number(serial_s));
  grid_doc.set("parallel_s", Json::number(runs.back().seconds));
  grid_doc.set("jobs", Json::number(static_cast<std::int64_t>(runs.back().jobs)));
  grid_doc.set("speedup", Json::number(serial_s / runs.back().seconds));
  doc.set("grid", grid_doc);

  Json dedupe = Json::object();
  Json scheds_doc = Json::array();
  for (const std::string& s : whatif_scheds) scheds_doc.push_back(Json::string(s));
  dedupe.set("schedulers", scheds_doc);
  dedupe.set("video_s", Json::number(video_s));
  dedupe.set("switch_at_s", Json::number(switch_at_s));
  dedupe.set("reps", Json::number(static_cast<std::int64_t>(whatif_spec.workload.runs)));
  dedupe.set("scratch_s", Json::number(scratch.seconds));
  dedupe.set("shared_s", Json::number(shared.seconds));
  dedupe.set("speedup", Json::number(scratch.seconds / shared.seconds));
  dedupe.set("outcomes_identical", Json::boolean(whatif_identical));
  doc.set("prefix_dedupe", dedupe);

  std::ofstream f(out_path);
  if (!f) {
    std::perror("bench_speed: open");
    return 1;
  }
  f << doc.dump(2) << "\n";
  f.close();
  std::printf("\nwrote %s\n", out_path);

  if (!prof_out.empty()) {
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    ProfileReport report = build_profile_report(prof::snapshot(), wall_s);
    add_sweep_telemetry(report, runs.back().telemetry);
    std::ofstream pf(prof_out);
    if (!pf) {
      std::perror("bench_speed: open --prof-out");
      return 1;
    }
    pf << profile_report_to_json(report).dump(2) << "\n";
    std::printf("wrote %s\n", prof_out.c_str());
  }
  return 0;
}
