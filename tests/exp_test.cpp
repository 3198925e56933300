// Tests for the experiment harness: world wiring, ideal references and what
// every runner takes from a spec.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "exp/ideal.h"
#include "exp/scenario_run.h"
#include "exp/snapshot.h"
#include "exp/streaming.h"
#include "obs/recorder.h"
#include "scenario/world.h"
#include "sched/registry.h"
#include "test_util.h"

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

TEST(TestbedTest, RequestDelayIsHalfPrimaryRtt) {
  WorldConfig tb = two_path_config();
  World bed(tb);
  EXPECT_EQ(bed.request_delay().ns(), bed.path(0).rtt_base().ns() / 2);
}

TEST(TestbedTest, ConnectionsGetUniqueIds) {
  World bed(two_path_config());
  auto a = bed.make_connection(scheduler_factory("default"));
  auto b = bed.make_connection(scheduler_factory("default"));
  EXPECT_NE(a->config().conn_id, b->config().conn_id);
}

TEST(TestbedTest, SubflowOrderIsWifiThenLte) {
  WorldConfig tb = two_path_config();
  tb.subflows_per_path = 2;
  World bed(tb);
  auto conn = bed.make_connection(scheduler_factory("default"));
  ASSERT_EQ(conn->subflows().size(), 4u);
  EXPECT_EQ(conn->subflows()[0]->path().name(), "wifi");
  EXPECT_EQ(conn->subflows()[1]->path().name(), "wifi");
  EXPECT_EQ(conn->subflows()[2]->path().name(), "lte");
  EXPECT_EQ(conn->subflows()[3]->path().name(), "lte");
}

TEST(StreamingParamsTest, SchedulerOverrideAndStagingKnobs) {
  StreamingParams p;
  p.paths = two_paths(1.1, 8.6);
  p.video = Duration::seconds(30);
  p.conn.subflow_staging_bytes = 16 * 1024;
  bool used = false;
  p.scheduler = [&used] {
    used = true;
    return scheduler_factory("ecf")();
  };
  const auto r = run_streaming(p);
  EXPECT_TRUE(used);
  EXPECT_GT(r.chunks_fetched, 0);
}

TEST(TestbedTest, RunForAdvancesClock) {
  World bed(two_path_config());
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

// --- every runner takes the spec's conn.* and record.* ---------------------------

void expect_same_template(const ConnectionConfig& got, const ConnectionConfig& want) {
  EXPECT_EQ(got.mss, want.mss);
  EXPECT_EQ(got.sndbuf_bytes, want.sndbuf_bytes);
  EXPECT_EQ(got.subflow_staging_bytes, want.subflow_staging_bytes);
  EXPECT_EQ(got.rcvbuf_bytes, want.rcvbuf_bytes);
  EXPECT_EQ(got.cc, want.cc);
  EXPECT_EQ(got.opportunistic_retransmission, want.opportunistic_retransmission);
  EXPECT_EQ(got.penalization, want.penalization);
  EXPECT_EQ(got.idle_cwnd_reset, want.idle_cwnd_reset);
  EXPECT_EQ(got.initial_cwnd, want.initial_cwnd);
  EXPECT_EQ(got.rcv_autotune, want.rcv_autotune);
  EXPECT_EQ(got.rcv_initial_window, want.rcv_initial_window);
  EXPECT_EQ(got.delayed_secondary_join, want.delayed_secondary_join);
}

TEST(RunnerSpecTest, EveryRunnerTakesTheConnKnobs) {
  for (const WorkloadKind kind : {WorkloadKind::kStream, WorkloadKind::kDownload,
                                  WorkloadKind::kWeb}) {
    SCOPED_TRACE(workload_kind_name(kind));
    ScenarioSpec s = workload_spec(kind, 10.0);
    s.conn.idle_cwnd_reset = false;
    s.conn.opportunistic_rtx = false;
    s.conn.penalization = false;
    s.conn.staging_bytes = 1500;
    const ConnectionConfig want = WorldBuilder(s).conn_config();
    ASSERT_EQ(want.subflow_staging_bytes, 1500u);
    ASSERT_FALSE(want.penalization);
    switch (kind) {
      case WorkloadKind::kStream: {
        StreamingRun run(streaming_params_from_spec(s));
        expect_same_template(run.connection().config(), want);
        break;
      }
      case WorkloadKind::kDownload: {
        DownloadRun run(download_params_from_spec(s));
        expect_same_template(run.connection().config(), want);
        break;
      }
      case WorkloadKind::kWeb: {
        // Every page-load connection is minted from the world's template.
        WebPageRun run(web_params_from_spec(s), 0);
        expect_same_template(run.world().config().conn, want);
        break;
      }
    }
  }
}

TEST(RunnerSpecTest, CallerRecorderSeesEveryWorkloadKind) {
  for (const WorkloadKind kind : {WorkloadKind::kStream, WorkloadKind::kDownload,
                                  WorkloadKind::kWeb}) {
    SCOPED_TRACE(workload_kind_name(kind));
    ScenarioSpec s = workload_spec(kind, 10.0);
    s.workload.runs = 1;
    s.record.summarize = true;
    FlightRecorder rec;
    ScenarioRunOptions opts;
    opts.recorder = &rec;
    run_scenario(s, opts);
    EXPECT_GT(rec.metrics().total("subflow.segments_sent"), 0u);
  }
}

TEST(RunnerSpecTest, CollectTracesRejectedWhereResultsCarryNoSeries) {
  for (const WorkloadKind kind : {WorkloadKind::kDownload, WorkloadKind::kWeb}) {
    SCOPED_TRACE(workload_kind_name(kind));
    ScenarioSpec s = workload_spec(kind, 10.0);
    s.record.collect_traces = true;
    try {
      run_scenario(s);
      ADD_FAILURE() << "record.collect_traces was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("record.collect_traces"), std::string::npos)
          << e.what();
    }
  }
}

TEST(RunnerSpecTest, RunsWithoutEnoughPathsAreRejected) {
  EXPECT_THROW(DownloadRun{DownloadParams{}}, std::invalid_argument);
  EXPECT_THROW(WebPageRun(WebRunParams{}, 0), std::invalid_argument);
  StreamingParams one = streaming_params_from_spec(workload_spec(WorkloadKind::kStream, 10.0));
  one.paths.resize(1);
  one.traces.clear();
  EXPECT_THROW(StreamingRun{one}, std::invalid_argument);
}

}  // namespace
}  // namespace mps
