// Snapshot-and-fork tests (exp/snapshot.h).
//
// The core claim under test: a world forked at a mid-run snapshot produces
// output byte-identical to the unforked run — for every golden-corpus
// preset, at serial and parallel sweep widths, at several snapshot times,
// and through chained forks. Plus the satellite regressions for the raw-this
// capture fixes the fork audit surfaced (an HttpExchange or TrafficEngine
// destroyed with callbacks still scheduled used to leave dangling events).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "app/http.h"
#include "check/invariants.h"
#include "check/stress.h"
#include "core/ecf.h"
#include "exp/snapshot.h"
#include "obs/recorder.h"
#include "scenario/world.h"
#include "sched/minrtt.h"
#include "sched/registry.h"
#include "tcp/subflow.h"
#include "test_util.h"
#include "traffic/arena.h"

namespace mps {
namespace {

namespace fs = std::filesystem;

const fs::path kScenarioDir = fs::path(MPS_SOURCE_DIR) / "scenarios";

// Same smoke scale as the golden-corpus test, so runtimes stay in ctest
// territory while every workload kind is covered.
void apply_smoke_overrides(ScenarioSpec& spec) {
  if (spec.traffic.enabled) return;
  spec.workload.runs = 1;
  if (spec.workload.kind == WorkloadKind::kStream) spec.workload.video_s = 5.0;
  if (spec.workload.kind == WorkloadKind::kDownload) spec.workload.bytes = 65536;
}

// A time strictly inside the run, so the fork genuinely splits prefix from
// suffix for every workload kind at smoke scale.
double snapshot_time_for(const ScenarioSpec& spec) {
  if (spec.traffic.enabled) return spec.traffic.duration_s * 0.5;
  switch (spec.workload.kind) {
    case WorkloadKind::kStream:
      return spec.workload.video_s * 0.5;
    case WorkloadKind::kDownload:
      return 0.05;
    case WorkloadKind::kWeb:
      return 0.5;
  }
  return 0.5;
}

bool wants_recorder(const ScenarioSpec& spec) {
  return spec.record.summarize &&
         (spec.traffic.enabled || spec.workload.kind == WorkloadKind::kStream);
}

// Renders a scratch (unforked) run exactly as golden_test/mps_run do. When
// the spec asks for a recorder summary it is included, so recorder content
// is part of the byte-identity check; `rec_out` additionally exposes the
// recorder for data_equals assertions.
std::string render_scratch(const ScenarioSpec& spec, FlightRecorder* rec_out) {
  std::string out;
  ScenarioRunOptions opts;
  if (wants_recorder(spec)) opts.recorder = rec_out;
  const ScenarioOutcome outcome = run_scenario(spec, opts);
  out += format_outcome(spec, outcome);
  if (opts.recorder != nullptr) {
    out += "\n--- flight recorder ---\n";
    std::ostringstream report;
    opts.recorder->summarize(report);
    out += report.str();
  }
  return out;
}

std::string render_forked(const ScenarioSpec& spec, double snapshot_at_s, int jobs,
                          FlightRecorder* rec_out) {
  std::string out;
  ScenarioRunOptions opts;
  if (wants_recorder(spec)) opts.recorder = rec_out;
  SweepOptions sweep;
  sweep.jobs = jobs;
  const ScenarioOutcome outcome = run_scenario_forked(spec, snapshot_at_s, opts, sweep);
  out += format_outcome(spec, outcome);
  if (opts.recorder != nullptr) {
    out += "\n--- flight recorder ---\n";
    std::ostringstream report;
    opts.recorder->summarize(report);
    out += report.str();
  }
  return out;
}

class ForkVsScratch : public ::testing::TestWithParam<int> {};

// For every golden-corpus preset: fork at a mid-run snapshot, finish the
// fork, and require output (and recorder data, where the preset records)
// byte-identical to the never-forked run.
TEST_P(ForkVsScratch, EveryPresetByteIdentical) {
  const int jobs = GetParam();
  const auto files = json_files(kScenarioDir);
  ASSERT_FALSE(files.empty()) << "no scenario presets found in " << kScenarioDir;

  for (const fs::path& file : files) {
    SCOPED_TRACE(file.filename().string());
    ScenarioSpec spec = scenario_from_json(Json::parse(slurp(file)));
    apply_smoke_overrides(spec);

    FlightRecorder scratch_rec;
    FlightRecorder forked_rec;
    const std::string scratch = render_scratch(spec, &scratch_rec);
    const std::string forked =
        render_forked(spec, snapshot_time_for(spec), jobs, &forked_rec);

    EXPECT_EQ(scratch, forked) << "fork-vs-scratch output drift in "
                               << file.filename().string();
    if (wants_recorder(spec)) {
      EXPECT_TRUE(scratch_rec.data_equals(forked_rec))
          << "recorder data drift in " << file.filename().string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Jobs, ForkVsScratch, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "jobs" + std::to_string(info.param);
                         });

// The learned-state schedulers through the fork machinery, under loss so the
// state is nontrivial by snapshot time: QAware is stateless by design, but
// OCO carries weights, deficit credits, activity baselines, and the
// redundancy-armed flag, all of which restore_from() must copy exactly for
// the forked suffix to replay byte-identically — at serial and parallel
// sweep widths, and under a coupled controller so the shared CC terms
// rebuild in the fork too.
TEST(SnapshotFork, QAwareAndOcoForkByteIdenticalUnderLoss) {
  for (const char* sched : {"qaware", "oco"}) {
    for (const char* cc : {"balia", "olia"}) {
      for (int jobs : {1, 4}) {
        SCOPED_TRACE(std::string(sched) + "/" + cc + " jobs=" + std::to_string(jobs));
        StressCell cell;
        cell.profile = "crossproduct";
        cell.scheduler = sched;
        cell.cc = cc;
        ScenarioSpec spec = stress_spec(cell);
        spec.workload.bytes = 131072;
        const std::string scratch = render_scratch(spec, nullptr);
        const std::string forked = render_forked(spec, 0.05, jobs, nullptr);
        EXPECT_EQ(scratch, forked);
      }
    }
  }
}

// Forking must be equivalence-preserving wherever the snapshot lands —
// before the first event, mid-run, and after the workload finished.
TEST(SnapshotFork, ForkAtSeveralTimesIsEquivalent) {
  StreamingParams p;
  p.paths = two_paths(8.0, 2.0);
  p.scheduler = scheduler_factory("ecf");
  p.video = Duration::seconds(5);
  p.seed = 42;

  const StreamingResult scratch = run_streaming(p);
  const std::string scratch_chunks = [&] {
    std::ostringstream os;
    for (const auto& c : scratch.chunks) {
      os << c.bitrate_mbps << ":" << (c.fetch_end - c.fetch_start).to_seconds() << ";";
    }
    return os.str();
  }();

  for (const double at_s : {0.0, 0.5, 2.0, 4.5, 1000.0}) {
    SCOPED_TRACE(at_s);
    StreamingRun run(p);
    run.start();
    run.run_to(TimePoint::origin() + Duration::from_seconds(at_s));
    std::unique_ptr<StreamingRun> forked = run.fork();
    const StreamingResult res = forked->finish();

    EXPECT_EQ(scratch.mean_bitrate_mbps, res.mean_bitrate_mbps);
    EXPECT_EQ(scratch.mean_throughput_mbps, res.mean_throughput_mbps);
    EXPECT_EQ(scratch.fraction_fast, res.fraction_fast);
    EXPECT_EQ(scratch.rebuffer_time, res.rebuffer_time);
    EXPECT_EQ(scratch.chunks_fetched, res.chunks_fetched);
    std::ostringstream os;
    for (const auto& c : res.chunks) {
      os << c.bitrate_mbps << ":" << (c.fetch_end - c.fetch_start).to_seconds() << ";";
    }
    EXPECT_EQ(scratch_chunks, os.str());
  }
}

// The world-level fork state in one stream: the wifi downlink carries every
// impairment at once (outage and flap in one schedule, Gilbert-Elliott and
// reordering, so the link holds a three-model CompositeFault whose chain
// state must carry over) and the lte path a scheduled bandwidth variation
// (pending rate changes must be adopted). Forks before, inside and after the
// outage all finish byte-identical to the unforked run, recorder included.
TEST(SnapshotFork, FaultyScheduledStreamForksMatchScratch) {
  ScenarioSpec spec;
  spec.name = "faulty_scheduled_stream";
  spec.paths = {wifi_path(4.0), lte_path(4.0)};
  FaultSpec& f = spec.paths[0].faults;
  f.outages = {OutageSpec{2.0, 1.5}};
  f.flap = FlapSpec{true, 4.0, 0.3, 1.0};
  f.gilbert_elliott.enabled = true;
  f.gilbert_elliott.p_good_bad = 0.1;
  f.gilbert_elliott.p_bad_good = 0.1;
  f.gilbert_elliott.loss_bad = 0.3;
  f.reorder = ReorderSpec{true, 0.05, 15.0, 5.0};
  VariationSpec& v = spec.paths[1].variation;
  v.kind = VariationKind::kSchedule;
  v.schedule = {RatePoint{0.0, 4.0}, RatePoint{3.0, 1.0}, RatePoint{6.0, 8.0}};
  spec.scheduler = "ecf";
  spec.workload.video_s = 40.0;
  spec.record.summarize = true;
  ASSERT_STREQ(make_fault_model(WorldBuilder(spec).path_configs()[0].fault)->name(),
               "composite");

  FlightRecorder scratch_rec;
  const std::string scratch = render_scratch(spec, &scratch_rec);
  ASSERT_GT(scratch_rec.metrics().total("link.drops_fault"), 0u);
  for (const double at_s : {0.5, 2.5, 5.0, 20.0}) {
    SCOPED_TRACE(at_s);
    FlightRecorder forked_rec;
    EXPECT_EQ(scratch, render_forked(spec, at_s, 1, &forked_rec));
    EXPECT_TRUE(scratch_rec.data_equals(forked_rec));
  }
}

// The time series of a traced stream (CWND from the recorder's gauge
// history, send-buffer occupancy from the run's 100 ms sampler) survive a
// fork point for point: same stamps, bitwise-equal values. Covers the
// handover preset (traces plus path-manager churn, so the lte slot and a
// torn-down wifi slot are both sampled) and a Fig. 3-shaped stream.
TEST(SnapshotFork, TracesMatchScratchPointForPoint) {
  ScenarioSpec handover =
      scenario_from_json(Json::parse(slurp(kScenarioDir / "handover_commuter.json")));
  apply_smoke_overrides(handover);
  ScenarioSpec fig03;
  fig03.paths = {wifi_path(0.3), lte_path(8.6)};
  fig03.scheduler = "default";
  fig03.workload.video_s = 10.0;
  fig03.record.collect_traces = true;

  const auto same = [](const TimeSeries& a, const TimeSeries& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const TimeSeriesPoint& p = a.points()[i];
      const TimeSeriesPoint& q = b.points()[i];
      if (p.t != q.t || std::bit_cast<std::uint64_t>(p.value) !=
                            std::bit_cast<std::uint64_t>(q.value)) {
        return false;
      }
    }
    return true;
  };
  for (const ScenarioSpec* spec : {&handover, &fig03}) {
    SCOPED_TRACE(spec->name.empty() ? "fig03-shaped" : spec->name);
    const StreamingResult scratch = run_scenario(*spec).streaming;
    ASSERT_GE(scratch.sndbuf_wifi.size(), 3u);
    ASSERT_EQ(scratch.sndbuf_lte.size(), scratch.sndbuf_wifi.size());
    ASSERT_FALSE(scratch.cwnd_wifi.empty());
    ASSERT_FALSE(scratch.cwnd_lte.empty());
    // The handover stream ends near 0.3 s at smoke scale, the other near 10 s.
    for (const double at_s : {0.0, 0.02, 0.15, 0.25, 2.05, 4.5, 7.0}) {
      SCOPED_TRACE(at_s);
      const StreamingResult forked = run_scenario_forked(*spec, at_s).streaming;
      EXPECT_TRUE(same(scratch.cwnd_wifi, forked.cwnd_wifi));
      EXPECT_TRUE(same(scratch.cwnd_lte, forked.cwnd_lte));
      EXPECT_TRUE(same(scratch.sndbuf_wifi, forked.sndbuf_wifi));
      EXPECT_TRUE(same(scratch.sndbuf_lte, forked.sndbuf_lte));
    }
  }
}

// Fork-of-a-fork, and sibling forks from one prefix: all copies are
// independent (finishing one cannot perturb another) and all agree with the
// unforked run. ASan/TSan runs of this test pin the no-dangling claim.
TEST(SnapshotFork, DoubleForkIndependence) {
  DownloadParams p;
  p.paths = two_paths(1.0, 5.0);
  p.bytes = 256 * 1024;
  p.scheduler = scheduler_factory("ecf");
  p.seed = 7;

  const DownloadResult scratch = run_download(p);

  DownloadRun run(p);
  run.start();
  run.run_to(TimePoint::origin() + Duration::from_seconds(0.2));
  std::unique_ptr<DownloadRun> fork_a = run.fork();
  std::unique_ptr<DownloadRun> fork_b = run.fork();

  // Advance the first fork further, then fork it again.
  fork_a->run_to(TimePoint::origin() + Duration::from_seconds(0.5));
  std::unique_ptr<DownloadRun> fork_aa = fork_a->fork();

  const DownloadResult res_b = fork_b->finish();
  fork_b.reset();
  const DownloadResult res_aa = fork_aa->finish();
  fork_aa.reset();
  const DownloadResult res_a = fork_a->finish();
  run.set_scheduler(p.scheduler);  // exercised, not asserted

  EXPECT_EQ(scratch.completion, res_a.completion);
  EXPECT_EQ(scratch.completion, res_b.completion);
  EXPECT_EQ(scratch.completion, res_aa.completion);
  EXPECT_EQ(scratch.fraction_fast, res_a.fraction_fast);
  EXPECT_EQ(scratch.fraction_fast, res_aa.fraction_fast);
}

// A fork of a run whose scheduler was switched rebuilds the switched type
// (its state restored from the source's), so the fork and its source finish
// identically.
TEST(SnapshotFork, ForkOfASwitchedRunKeepsTheSwitchedScheduler) {
  DownloadParams p;
  p.paths = two_paths(1.0, 5.0);
  p.bytes = 256 * 1024;
  p.scheduler = scheduler_factory("minrtt");
  p.seed = 7;

  DownloadRun run(p);
  run.start();
  run.run_to(TimePoint::origin() + Duration::from_seconds(0.1));
  run.set_scheduler(scheduler_factory("ecf"));
  run.run_to(TimePoint::origin() + Duration::from_seconds(0.3));
  std::unique_ptr<DownloadRun> fork = run.fork();
  EXPECT_STREQ(fork->connection().scheduler().name(), "ecf");

  const DownloadResult res_fork = fork->finish();
  const DownloadResult res_src = run.finish();
  EXPECT_EQ(res_src.completion, res_fork.completion);
  EXPECT_EQ(res_src.fraction_fast, res_fork.fraction_fast);
}

// The protocol invariants hold inside a forked world: attach the checker to
// the fork's recorder stream and let it validate every event of the suffix.
TEST(SnapshotFork, InvariantCheckerCleanInForkedWorld) {
  StreamingParams p;
  p.paths = two_paths(4.0, 8.0);
  p.scheduler = scheduler_factory("ecf");
  p.video = Duration::seconds(5);
  p.seed = 3;
  FlightRecorder rec;
  p.recorder = &rec;

  StreamingRun run(p);
  run.start();
  run.run_to(TimePoint::origin() + Duration::from_seconds(2.0));
  std::unique_ptr<StreamingRun> forked = run.fork();

  InvariantChecker checker(forked->sim());
  checker.watch(forked->connection());
  forked->finish();
  checker.check_now("forked-world-final");
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(checker.checks_run(), 0u);
}

// The what-if grid's two modes — shared prefix forked per scheduler vs the
// full from-scratch grid — must agree cell-for-cell.
TEST(SnapshotFork, WhatIfGridSharedPrefixMatchesScratch) {
  ScenarioSpec spec;
  spec.name = "whatif";
  spec.scheduler = "minrtt";
  spec.workload.kind = WorkloadKind::kDownload;
  spec.workload.bytes = 512 * 1024;
  spec.workload.runs = 2;
  spec.seed = 11;
  spec.paths = {wifi_path(2.0), lte_path(8.0)};

  const std::vector<std::string> schedulers = {"minrtt", "ecf", "rr"};
  const double switch_at = 0.3;

  const auto shared = run_whatif_grid(spec, schedulers, switch_at, /*share_prefix=*/true);
  const auto scratch = run_whatif_grid(spec, schedulers, switch_at, /*share_prefix=*/false);

  ASSERT_EQ(shared.size(), schedulers.size());
  ASSERT_EQ(scratch.size(), schedulers.size());
  for (std::size_t b = 0; b < schedulers.size(); ++b) {
    SCOPED_TRACE(schedulers[b]);
    EXPECT_EQ(format_outcome(spec, shared[b]), format_outcome(spec, scratch[b]));
    EXPECT_EQ(shared[b].download.completion, scratch[b].download.completion);
  }
  // The divergence is real: different schedulers reach different outcomes.
  EXPECT_NE(shared[1].download.completion, shared[2].download.completion);
}

TEST(SnapshotFork, WhatIfGridRejectsUnsupportedWorkloads) {
  ScenarioSpec spec;
  spec.workload.kind = WorkloadKind::kWeb;
  spec.paths = {wifi_path(5.0), lte_path(5.0)};
  EXPECT_THROW(run_whatif_grid(spec, {"ecf"}, 1.0, true), std::invalid_argument);
}

// --- traffic forks at crowd shape ---------------------------------------------

// Live blocks in every per-flow slab pool a traffic world allocates from. A
// fork or a teardown that leaks (or double-frees) a flow object changes it.
std::vector<std::uint64_t> per_flow_outstanding() {
  return {slab_pool_for<Connection>().stats().outstanding,
          slab_pool_for<Subflow>().stats().outstanding,
          slab_pool_for<SubflowReceiver>().stats().outstanding,
          slab_pool_for<HttpExchange>().stats().outstanding,
          slab_pool_for<EcfScheduler>().stats().outstanding,
          slab_pool_for<MinRttScheduler>().stats().outstanding};
}

std::string render_traffic(const ScenarioSpec& spec, TrafficRun& run) {
  ScenarioOutcome out;
  out.traffic = run.finish();
  return format_outcome(spec, out);
}

// A 200-flow cell with churn and one cross group, forked three ways at three
// points — before the first completion, mid-churn with a deferred teardown
// post pending, after the last arrival — plus a fork of a fork: every branch
// renders exactly what the unforked run does, each source is destroyed right
// after forking (as the repetition driver does), and once every run is gone
// the per-flow pools hold what they held before.
TEST(SnapshotFork, CrowdTrafficForksMatchUnforkedRun) {
  const std::vector<std::uint64_t> before = per_flow_outstanding();
  {
    ScenarioSpec spec = fairness_cell_spec("ecf", 200, 2.0, 40'000, 5);
    spec.traffic.max_arrivals = 40;  // the last arrival lands well before the end
    std::string plain;
    double last_arrival_s = 0.0;
    {
      TrafficRun run(spec);
      run.start();
      for (const TrafficFlowRecord& f : run.engine().collect().flows) {
        last_arrival_s = std::max(last_arrival_s, f.arrival_s);
      }
      plain = render_traffic(spec, run);
    }
    ASSERT_NE(plain.find("40 churned + 1 cross"), std::string::npos) << plain;
    const double after_arrivals_s = last_arrival_s + 0.05;
    ASSERT_LT(after_arrivals_s, spec.traffic.duration_s);

    // A flow whose completion was recorded but whose deferred teardown post
    // has not fired yet: completed, delivered bytes not yet read back.
    const auto teardown_pending = [](TrafficRun& run) {
      for (const TrafficFlowRecord& f : run.engine().collect().flows) {
        if (f.completed && f.delivered == 0) return true;
      }
      return false;
    };
    constexpr int kForks = 3;
    const auto fork_and_check = [&](std::unique_ptr<TrafficRun> src) {
      std::vector<std::unique_ptr<TrafficRun>> forks;
      for (int k = 0; k < kForks; ++k) forks.push_back(src->fork());
      src.reset();
      for (auto& f : forks) EXPECT_EQ(render_traffic(spec, *f), plain);
    };
    const auto started_run = [&] {
      auto run = std::make_unique<TrafficRun>(spec);
      run->start();
      return run;
    };

    {
      SCOPED_TRACE("before the first completion");
      auto run = started_run();
      run->run_to(TimePoint::origin() + Duration::from_seconds(0.01));
      const TrafficResult at = run->engine().collect();
      ASSERT_GT(at.started, 0u);
      ASSERT_EQ(at.completed, 0u);
      fork_and_check(std::move(run));
    }
    {
      SCOPED_TRACE("mid-churn, a teardown post pending");
      auto run = started_run();
      run->run_to(TimePoint::origin() + Duration::from_seconds(0.5));
      for (int steps = 0; steps < 1'000'000 && !teardown_pending(*run); ++steps) {
        ASSERT_TRUE(run->sim().step());
      }
      ASSERT_TRUE(teardown_pending(*run));
      ASSERT_LT(run->sim().now(), TimePoint::origin() + Duration::from_seconds(last_arrival_s));
      fork_and_check(std::move(run));
    }
    {
      SCOPED_TRACE("after the last arrival");
      auto run = started_run();
      run->run_to(TimePoint::origin() + Duration::from_seconds(after_arrivals_s));
      fork_and_check(std::move(run));
    }
    {
      SCOPED_TRACE("fork of a fork");
      auto run = started_run();
      run->run_to(TimePoint::origin() + Duration::from_seconds(0.3));
      std::unique_ptr<TrafficRun> first = run->fork();
      run.reset();
      first->run_to(TimePoint::origin() + Duration::from_seconds(1.2));
      fork_and_check(std::move(first));
    }
  }
  EXPECT_EQ(per_flow_outstanding(), before);
}

// --- satellite: raw-`this` capture regressions ------------------------------

// Destroying an HttpExchange with a GET's request event still in flight must
// cancel that event: it used to fire into the freed exchange when the
// simulation kept running (caught by the fork audit, reproduced here).
TEST(DanglingCallbacks, HttpExchangeDestroyedWithInflightRequest) {
  WorldConfig tb = two_path_config(8.0, 8.0);
  tb.seed = 1;
  World bed(tb);
  auto conn = bed.make_connection(scheduler_factory("minrtt"));
  auto http = std::make_unique<HttpExchange>(bed.sim(), *conn, bed.request_delay());

  bool done_fired = false;
  http->get(100'000, [&](const ObjectResult&) { done_fired = true; });
  ASSERT_GT(bed.sim().pending_events(), 0u);
  http.reset();  // request event still pending

  bed.sim().run_until(TimePoint::origin() + Duration::seconds(5));
  EXPECT_FALSE(done_fired);
}

// Destroying a TrafficEngine mid-run (pending arrivals, per-flow teardown
// posts, and an on_tick chain) must cancel everything it scheduled; the
// simulation then keeps running without touching the freed engine.
TEST(DanglingCallbacks, TrafficEngineDestroyedMidRun) {
  const ScenarioSpec spec = fairness_cell_spec("minrtt", 4, 2.0, 200'000, 9);
  WorldBuilder builder(spec);
  std::unique_ptr<World> world = builder.build(nullptr);

  int ticks = 0;
  auto engine = std::make_unique<TrafficEngine>(*world, builder.spec());
  engine->tick_s = 0.1;
  engine->on_tick = [&ticks] { ++ticks; };
  engine->start();

  world->sim().run_until(TimePoint::origin() + Duration::from_seconds(0.7));
  ASSERT_GT(ticks, 0);
  const int ticks_at_destroy = ticks;
  engine.reset();  // arrivals, teardown posts, and the tick chain are pending

  world->sim().run_until(TimePoint::origin() + Duration::from_seconds(3.0));
  EXPECT_EQ(ticks, ticks_at_destroy);
}

}  // namespace
}  // namespace mps
