// Tests for the experiment harness: testbed wiring, ideal references, scale.
#include <gtest/gtest.h>

#include <cstdlib>

#include "exp/ideal.h"
#include "exp/scenario_run.h"
#include "exp/snapshot.h"
#include "exp/scale.h"
#include "exp/streaming.h"
#include "exp/testbed.h"
#include "sched/registry.h"

namespace mps {
namespace {

TEST(IdealTest, BitrateCappedAtTopTier) {
  EXPECT_DOUBLE_EQ(ideal_bitrate_mbps(8.6, 8.6), 8.47);
  EXPECT_DOUBLE_EQ(ideal_bitrate_mbps(0.3, 0.7), 1.0);
  EXPECT_DOUBLE_EQ(ideal_bitrate_mbps(0.3, 8.6), 8.47);  // paper upper-left case
}

TEST(IdealTest, FastFraction) {
  EXPECT_NEAR(ideal_fast_fraction(8.6, 0.3), 8.6 / 8.9, 1e-12);
  EXPECT_DOUBLE_EQ(ideal_fast_fraction(4.2, 4.2), 0.5);
  EXPECT_DOUBLE_EQ(ideal_fast_fraction(0.0, 0.0), 0.0);
}

TEST(IdealTest, GridMatchesPaper) {
  const auto& grid = paper_bandwidth_grid();
  ASSERT_EQ(grid.size(), 6u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.3);
  EXPECT_DOUBLE_EQ(grid.back(), 8.6);
}

TEST(ScaleTest, DefaultsAreQuick) {
  // The env var is unset (or quick) in the test harness; defaults must be
  // the fast configuration and the note must mention the switch.
  const BenchScale& s = bench_scale();
  EXPECT_GE(s.streaming_runs, 1);
  EXPECT_NE(scale_note().find("MPS_BENCH_SCALE"), std::string::npos);
}

TEST(TestbedTest, RequestDelayIsHalfPrimaryRtt) {
  TestbedConfig tb;
  Testbed bed(tb);
  EXPECT_EQ(bed.request_delay().ns(), bed.wifi().rtt_base().ns() / 2);
}

TEST(TestbedTest, ConnectionsGetUniqueIds) {
  Testbed bed(TestbedConfig{});
  auto a = bed.make_connection(scheduler_factory("default"));
  auto b = bed.make_connection(scheduler_factory("default"));
  EXPECT_NE(a->config().conn_id, b->config().conn_id);
}

TEST(TestbedTest, SubflowOrderIsWifiThenLte) {
  TestbedConfig tb;
  tb.subflows_per_path = 2;
  Testbed bed(tb);
  auto conn = bed.make_connection(scheduler_factory("default"));
  ASSERT_EQ(conn->subflows().size(), 4u);
  EXPECT_EQ(conn->subflows()[0]->path().name(), "wifi");
  EXPECT_EQ(conn->subflows()[1]->path().name(), "wifi");
  EXPECT_EQ(conn->subflows()[2]->path().name(), "lte");
  EXPECT_EQ(conn->subflows()[3]->path().name(), "lte");
}

TEST(StreamingParamsTest, SchedulerOverrideAndStagingKnobs) {
  StreamingParams p;
  p.wifi_mbps = 1.1;
  p.lte_mbps = 8.6;
  p.video = Duration::seconds(30);
  p.staging_bytes = 16 * 1024;
  bool used = false;
  p.scheduler_override = [&used] {
    used = true;
    return scheduler_factory("ecf")();
  };
  const auto r = run_streaming(p);
  EXPECT_TRUE(used);
  EXPECT_GT(r.chunks_fetched, 0);
}

TEST(TestbedTest, RunForAdvancesClock) {
  Testbed bed(TestbedConfig{});
  bed.run_for(Duration::seconds(3));
  EXPECT_EQ(bed.sim().now().ns(), Duration::seconds(3).ns());
}

// --- capped downloads ----------------------------------------------------------

ScenarioSpec download_spec(double rate_mbps) {
  ScenarioSpec s;
  s.name = "capped-download";
  s.paths = {wifi_path(rate_mbps), lte_path(rate_mbps)};
  s.workload.kind = WorkloadKind::kDownload;
  s.workload.bytes = 256 * 1024;
  s.workload.runs = 2;
  return s;
}

TEST(CappedDownloadTest, RunPastTheCapIsReportedCapped) {
  // 1 kbps per path cannot move 256 KB within the 600 s cap.
  const ScenarioSpec spec = download_spec(0.001);
  const ScenarioOutcome out = run_scenario(spec);
  EXPECT_TRUE(out.download.capped);
  EXPECT_EQ(out.download.completion, Duration::zero());
  const std::string text = format_outcome(spec, out);
  EXPECT_NE(text.find("\n  capped: a run reached the 600 s cap before its download "
                      "completed\n"),
            std::string::npos)
      << text;
}

TEST(CappedDownloadTest, CompletedRunPrintsNoCappedLine) {
  const ScenarioSpec spec = download_spec(10.0);
  const ScenarioOutcome out = run_scenario(spec);
  EXPECT_FALSE(out.download.capped);
  EXPECT_GT(out.download.completion, Duration::zero());
  EXPECT_EQ(format_outcome(spec, out).find("capped"), std::string::npos);
}

TEST(CappedDownloadTest, ForkedRunCarriesCappedFlag) {
  const ScenarioSpec spec = download_spec(0.001);
  const ScenarioOutcome out = run_scenario_forked(spec, 1.0);
  EXPECT_TRUE(out.download.capped);
}

// --- capped streams and page loads ----------------------------------------------

ScenarioSpec workload_spec(WorkloadKind kind, double rate_mbps) {
  ScenarioSpec s = download_spec(rate_mbps);
  s.name = "capped-workload";
  s.workload.kind = kind;
  s.workload.video_s = 5.0;  // stream cap: 30 x 5 s + 600 s = 750 s
  return s;
}

TEST(CappedStreamTest, StallingStreamIsReportedCappedAndCompletedIsNot) {
  // 1 kbps per path cannot fetch 5 s of video within 750 s.
  const ScenarioSpec slow = workload_spec(WorkloadKind::kStream, 0.001);
  const ScenarioOutcome out = run_scenario(slow);
  EXPECT_TRUE(out.streaming.capped);
  EXPECT_TRUE(out.capped());
  EXPECT_NE(format_outcome(slow, out).find("\n  capped: a run reached the 30 x video + 600 s "
                                            "cap before its session finished\n"),
            std::string::npos)
      << format_outcome(slow, out);
  EXPECT_TRUE(run_scenario_forked(slow, 1.0).streaming.capped);

  const ScenarioSpec fast = workload_spec(WorkloadKind::kStream, 10.0);
  const ScenarioOutcome done = run_scenario(fast);
  EXPECT_FALSE(done.capped());
  EXPECT_EQ(format_outcome(fast, done).find("capped"), std::string::npos);
}

TEST(CappedWebTest, StallingPageLoadIsReportedCappedAndCompletedIsNot) {
  // 1 kbps per path cannot load the page's objects within 3600 s.
  const ScenarioSpec slow = workload_spec(WorkloadKind::kWeb, 0.001);
  const ScenarioOutcome out = run_scenario(slow);
  EXPECT_TRUE(out.web.capped);
  EXPECT_TRUE(out.capped());
  EXPECT_NE(format_outcome(slow, out).find("\n  capped: a run reached the 3600 s cap before "
                                            "its page finished loading\n"),
            std::string::npos)
      << format_outcome(slow, out);
  EXPECT_TRUE(run_scenario_forked(slow, 1.0).web.capped);

  const ScenarioSpec fast = workload_spec(WorkloadKind::kWeb, 10.0);
  const ScenarioOutcome done = run_scenario(fast);
  EXPECT_FALSE(done.capped());
  EXPECT_EQ(format_outcome(fast, done).find("capped"), std::string::npos);
}

}  // namespace
}  // namespace mps
