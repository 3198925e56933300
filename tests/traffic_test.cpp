// Tests for the competing-traffic engine (src/traffic/): fairness metrics
// against hand-computed values, end-to-end engine behaviour, cross-traffic
// contention, serial == parallel determinism of the bench_fairness churn
// cell, and invariant-cleanliness of churn runs under the checker.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "check/stress.h"
#include "exp/snapshot.h"
#include "exp/sweep.h"
#include "obs/recorder.h"
#include "traffic/engine.h"
#include "traffic/fairness.h"

namespace mps {
namespace {

// --- fairness.h -------------------------------------------------------------

TEST(JainIndex, EqualSharesAreFair) {
  EXPECT_DOUBLE_EQ(jain_index({1.0, 1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({5.5, 5.5}), 1.0);
}

TEST(JainIndex, HandComputedCases) {
  // (1+2+3)^2 / (3 * (1+4+9)) = 36/42 = 6/7
  EXPECT_DOUBLE_EQ(jain_index({1.0, 2.0, 3.0}), 6.0 / 7.0);
  // One starved flow out of two: (10)^2 / (2 * 100) = 0.5
  EXPECT_DOUBLE_EQ(jain_index({10.0, 0.0}), 0.5);
  // k of n flows sharing equally scores k/n: 2 of 4.
  EXPECT_DOUBLE_EQ(jain_index({3.0, 3.0, 0.0, 0.0}), 0.5);
}

TEST(JainIndex, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(jain_index({7.0}), 1.0);        // single flow
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);           // no flows: vacuously fair
  EXPECT_DOUBLE_EQ(jain_index({0.0, 0.0}), 1.0);   // all starved: equal shares
}

TEST(FairnessSummary, AggregatesMatchInputs) {
  const FairnessSummary s = fairness_summary({4.0, 1.0, 3.0});
  EXPECT_EQ(s.flows, 3u);
  EXPECT_DOUBLE_EQ(s.total, 8.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.jain, jain_index({4.0, 1.0, 3.0}));
}

TEST(LinkUtilization, SumsAcrossMuxedFlows) {
  // Three flows muxed over an 18 Mbps aggregate: utilization is computed
  // from the summed goodput, not per-flow.
  const double total = 6.0 + 2.0 + 1.0;
  EXPECT_DOUBLE_EQ(link_utilization(total, 18.0), 0.5);
  EXPECT_DOUBLE_EQ(link_utilization(0.0, 18.0), 0.0);
  EXPECT_DOUBLE_EQ(link_utilization(9.0, 0.0), 0.0);   // degenerate capacity
  EXPECT_DOUBLE_EQ(link_utilization(9.0, -1.0), 0.0);
}

// --- engine -----------------------------------------------------------------

ScenarioSpec no_churn_spec(int flows, const std::string& sched = "ecf") {
  ScenarioSpec s;
  s.name = "traffic-test";
  s.paths.push_back(wifi_path(8.0));
  s.paths.push_back(lte_path(10.0));
  s.scheduler = sched;
  s.traffic.enabled = true;
  s.traffic.flows = flows;
  s.traffic.arrival_rate_per_s = 0.0;  // no churn: initial flows only
  s.traffic.flow_bytes = 64 * 1024;
  s.traffic.size_dist = "fixed";
  s.traffic.duration_s = 6.0;
  s.seed = 11;
  return s;
}

TEST(TrafficEngine, NoChurnFlowsAllComplete) {
  const TrafficResult res = run_traffic(no_churn_spec(3));
  EXPECT_EQ(res.started, 3u);
  EXPECT_EQ(res.completed, 3u);
  EXPECT_EQ(res.churned, 0u);
  EXPECT_EQ(res.completion_s.count(), 3u);
  EXPECT_GT(res.aggregate_goodput_mbps, 0.0);
  EXPECT_GT(res.jain, 0.0);
  EXPECT_LE(res.jain, 1.0);
  // 3 x 64 KiB over 18 Mbps nominal finishes far inside 6 s.
  EXPECT_LT(res.completion_s.max(), 6.0);
  for (const TrafficFlowRecord& f : res.flows) {
    EXPECT_TRUE(f.completed);
    EXPECT_EQ(f.delivered, f.bytes);
  }
}

TEST(TrafficEngine, RepeatRunsAreBitExact) {
  const ScenarioSpec spec = fairness_cell_spec("ecf", 4, 6.0, 65536);
  const TrafficResult a = run_traffic(spec);
  const TrafficResult b = run_traffic(spec);
  EXPECT_EQ(a.started, b.started);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.churned, b.churned);
  EXPECT_EQ(a.orphans, b.orphans);
  EXPECT_EQ(a.aggregate_goodput_mbps, b.aggregate_goodput_mbps);  // bitwise
  EXPECT_EQ(a.jain, b.jain);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].bytes, b.flows[i].bytes);
    EXPECT_EQ(a.flows[i].arrival_s, b.flows[i].arrival_s);
    EXPECT_EQ(a.flows[i].delivered, b.flows[i].delivered);
    EXPECT_EQ(a.flows[i].completion_s, b.flows[i].completion_s);
  }
}

TEST(TrafficEngine, CrossTrafficSlowsMptcpFlows) {
  ScenarioSpec quiet = no_churn_spec(4);
  // Large enough that the flows are still running once the cross flow has
  // ramped out of slow start and the LTE queue actually builds — tiny flows
  // finish before any contention materializes.
  quiet.traffic.flow_bytes = 512 * 1024;
  quiet.traffic.duration_s = 12.0;
  ScenarioSpec contended = quiet;
  contended.traffic.cross = {CrossTrafficSpec{1, 1, 0.0}};  // saturate LTE
  // Cross forks are drawn after the MPTCP flows' forks, so both runs give
  // the MPTCP flows identical plans; only the contention differs.
  const TrafficResult q = run_traffic(quiet);
  const TrafficResult c = run_traffic(contended);
  ASSERT_EQ(q.completed, 4u);
  ASSERT_EQ(c.completed, 4u);
  EXPECT_GT(c.completion_s.mean(), q.completion_s.mean());
  // mptcp_goodput_mbps is delivered-over-run-duration, identical when every
  // flow completes in both runs — per-flow goodput (over each flow's own
  // lifetime) is where contention shows.
  double q_flow_goodput = 0.0;
  double c_flow_goodput = 0.0;
  for (const TrafficFlowRecord& f : q.flows) {
    if (!f.cross) q_flow_goodput += f.goodput_mbps;
  }
  for (const TrafficFlowRecord& f : c.flows) {
    if (!f.cross) c_flow_goodput += f.goodput_mbps;
  }
  EXPECT_LT(c_flow_goodput, q_flow_goodput);
  EXPECT_GT(c.cross_goodput_mbps, 0.0);
  EXPECT_DOUBLE_EQ(q.cross_goodput_mbps, 0.0);
}

TEST(TrafficEngine, RecorderInstrumentsMatchResult) {
  FlightRecorder recorder;
  ScenarioSpec spec = fairness_cell_spec("ecf", 2, 5.0, 65536);
  const TrafficResult res = run_traffic(spec, &recorder);
  const MetricsRegistry& m = recorder.metrics();
  EXPECT_EQ(m.total("traffic.flows_started"), res.started);
  EXPECT_EQ(m.total("traffic.flows_completed"), res.completed);
  const Instrument* fct = m.find("traffic.completion_s", MetricLabels{});
  ASSERT_NE(fct, nullptr);
  EXPECT_EQ(fct->hist.count, res.completed);
}

// --- determinism: bench_fairness churn cell, serial vs parallel -------------

// Restores MPS_BENCH_JOBS on scope exit (same pattern as sweep_test.cpp).
class ScopedJobsEnv {
 public:
  explicit ScopedJobsEnv(const char* value) {
    const char* old = std::getenv("MPS_BENCH_JOBS");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv("MPS_BENCH_JOBS", value, 1);
  }
  ~ScopedJobsEnv() {
    if (had_old_) {
      ::setenv("MPS_BENCH_JOBS", old_.c_str(), 1);
    } else {
      ::unsetenv("MPS_BENCH_JOBS");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

std::vector<TrafficResult> run_fairness_row(const char* jobs) {
  ScopedJobsEnv env(jobs);
  const std::vector<std::string> scheds = {"default", "ecf", "daps", "blest"};
  return sweep_map<TrafficResult>(scheds.size(), [&](std::size_t i) {
    return run_traffic(fairness_cell_spec(scheds[i], 4, 6.0, 65536));
  });
}

TEST(TrafficDeterminism, FourFlowChurnCellSerialEqualsParallel) {
  const auto serial = run_fairness_row("1");
  const auto parallel = run_fairness_row("4");
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("scheduler index " + std::to_string(i));
    EXPECT_EQ(serial[i].started, parallel[i].started);
    EXPECT_EQ(serial[i].completed, parallel[i].completed);
    EXPECT_EQ(serial[i].orphans, parallel[i].orphans);
    EXPECT_EQ(serial[i].aggregate_goodput_mbps, parallel[i].aggregate_goodput_mbps);
    EXPECT_EQ(serial[i].jain, parallel[i].jain);
    EXPECT_EQ(serial[i].completion_s.mean(), parallel[i].completion_s.mean());
    ASSERT_EQ(serial[i].flows.size(), parallel[i].flows.size());
    for (std::size_t f = 0; f < serial[i].flows.size(); ++f) {
      EXPECT_EQ(serial[i].flows[f].delivered, parallel[i].flows[f].delivered);
      EXPECT_EQ(serial[i].flows[f].completion_s, parallel[i].flows[f].completion_s);
    }
  }
}

// --- invariants under churn -------------------------------------------------

TEST(TrafficInvariants, ChurnStressCellIsClean) {
  StressCell cell;
  cell.profile = "churn";
  cell.scheduler = "ecf";
  cell.seed = 3;
  const StressCellResult res = run_stress_cell(cell);
  EXPECT_TRUE(res.ok()) << [&] {
    std::string all;
    for (const auto& v : res.violations) all += v + "\n";
    return all;
  }();
  EXPECT_GT(res.checks_run, 0u);
}

}  // namespace
}  // namespace mps
