// Tests for the schedulers: the pure ECF decision (paper Algorithm 1), the
// BLEST blocking estimate, and behavioural tests of every scheduler over a
// live connection.
#include <gtest/gtest.h>

#include <tuple>

#include "core/ecf.h"
#include "scenario/world.h"
#include "sched/blest.h"
#include "sched/daps.h"
#include "sched/minrtt.h"
#include "sched/oco.h"
#include "sched/qaware.h"
#include "sched/redundant.h"
#include "sched/registry.h"
#include "sched/roundrobin.h"
#include "sched/singlepath.h"
#include "test_util.h"

namespace mps {
namespace {

// --- ecf_decide: the paper's own example (Section 3.2) -----------------------
// Two subflows, RTTs 10 ms and 100 ms, CWND 10 each, 11 packets remaining:
// waiting for the 10 ms subflow completes in ~20 ms versus 100 ms when
// splitting, so ECF must wait.

TEST(EcfDecideTest, PaperSection32Example) {
  const auto d = ecf_decide(/*k=*/11, /*cwnd_f=*/10, /*ssthresh_f=*/10, /*cwnd_s=*/10,
                            /*ssthresh_s=*/10, /*rtt_f=*/0.010, /*rtt_s=*/0.100,
                            /*delta=*/0.0, /*waiting=*/false, /*beta=*/0.25);
  EXPECT_EQ(d, EcfDecision::kWait);
}

TEST(EcfDecideTest, LargeBacklogUsesSlowPath) {
  // k large: (1 + k/cwnd_f) * rtt_f >= rtt_s -> use both paths.
  const auto d = ecf_decide(/*k=*/1000, /*cwnd_f=*/10, /*ssthresh_f=*/10, /*cwnd_s=*/10,
                            /*ssthresh_s=*/10, 0.010, 0.100, 0.0, false, 0.25);
  EXPECT_EQ(d, EcfDecision::kUseSlow);
}

TEST(EcfDecideTest, TinyBacklogSlowWouldFinishFirst) {
  // First inequality favours waiting, but k is so small that the slow path
  // would complete before the fast one frees up (second inequality fails):
  // k/cwnd_s * rtt_s < 2*rtt_f + delta.
  const auto d = ecf_decide(/*k=*/1, /*cwnd_f=*/10, /*ssthresh_f=*/10, /*cwnd_s=*/10,
                            /*ssthresh_s=*/10, 0.040, 0.100, 0.0, false, 0.25);
  EXPECT_EQ(d, EcfDecision::kUseSlowSmallK);
}

TEST(EcfDecideTest, HysteresisKeepsWaiting) {
  // Pick k right at the boundary: without `waiting` the first inequality
  // fails; with it (factor 1+beta) it holds.
  const double rtt_f = 0.010, rtt_s = 0.100;
  const double k = 95.0;  // n = 10.5 -> n*rtt_f = 0.105 vs rtt_s = 0.100
  EXPECT_EQ(ecf_decide(k, 10, 10, 10, 10, rtt_f, rtt_s, 0.0, false, 0.25), EcfDecision::kUseSlow);
  EXPECT_EQ(ecf_decide(k, 10, 10, 10, 10, rtt_f, rtt_s, 0.0, true, 0.25), EcfDecision::kWait);
}

TEST(EcfDecideTest, DeltaMarginLoosensWaiting) {
  const double k = 100.0;  // n*rtt_f = 0.11 > rtt_s = 0.10 -> use slow
  EXPECT_EQ(ecf_decide(k, 10, 10, 10, 10, 0.010, 0.100, 0.0, false, 0.25), EcfDecision::kUseSlow);
  // A large delta (noisy RTTs) tips the decision to waiting.
  EXPECT_EQ(ecf_decide(k, 10, 10, 10, 10, 0.010, 0.100, 0.05, false, 0.25), EcfDecision::kWait);
}

TEST(EcfDecideTest, HomogeneousPathsNeverWait) {
  for (double k : {1.0, 10.0, 100.0, 1000.0}) {
    const auto d = ecf_decide(k, 10, 10, 10, 10, 0.050, 0.050, 0.0, false, 0.25);
    EXPECT_NE(d, EcfDecision::kWait) << "k=" << k;
  }
}

TEST(EcfDecideTest, ZeroCwndClamped) {
  // Degenerate inputs must not divide by zero.
  const auto d = ecf_decide(10, 0, 0, 0, 0, 0.010, 0.100, 0.0, false, 0.25);
  (void)d;
  SUCCEED();
}

// Property sweep: whenever ECF waits, the modelled completion time by
// waiting must be smaller than the modelled completion time via the slow
// path; sanity of the paper's inequality across a parameter grid.
struct EcfGridParam {
  double k, cwnd_f, cwnd_s, rtt_f, rtt_s;
};

class EcfGridTest : public ::testing::TestWithParam<EcfGridParam> {};

TEST_P(EcfGridTest, WaitImpliesFasterCompletion) {
  const auto& p = GetParam();
  const auto d = ecf_decide(p.k, p.cwnd_f, p.cwnd_f, p.cwnd_s, p.cwnd_s, p.rtt_f, p.rtt_s,
                            0.0, false, 0.25);
  if (d == EcfDecision::kWait) {
    const double t_wait = (1.0 + ecf_transfer_rounds(p.k, p.cwnd_f, p.cwnd_f)) * p.rtt_f;
    EXPECT_LT(t_wait, p.rtt_s + 1e-12);
    // And the slow path genuinely needs at least ~2 fast RTTs.
    EXPECT_GE(ecf_transfer_rounds(p.k, p.cwnd_s, p.cwnd_s) * p.rtt_s, 2.0 * p.rtt_f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EcfGridTest,
    ::testing::Values(EcfGridParam{5, 10, 10, 0.01, 0.1}, EcfGridParam{20, 10, 10, 0.01, 0.1},
                      EcfGridParam{50, 20, 5, 0.02, 0.3}, EcfGridParam{200, 50, 25, 0.04, 0.9},
                      EcfGridParam{8, 40, 30, 0.08, 0.9}, EcfGridParam{500, 80, 30, 0.09, 0.6},
                      EcfGridParam{3, 10, 2, 0.005, 0.4}, EcfGridParam{64, 32, 16, 0.05, 0.25}));

// --- BLEST estimate -----------------------------------------------------------

TEST(BlestTest, BlocksWhenWindowTight) {
  // Fast path could send ~10 rounds * 50 segs while the slow RTT elapses;
  // with only ~20 segments of window space left, sending on the slow path
  // must be declined.
  EXPECT_TRUE(blest_would_block(/*lambda=*/1.0, /*cwnd_f=*/50, /*rtt_f=*/0.05,
                                /*rtt_s=*/0.5, /*mss=*/1428.0,
                                /*window=*/30'000.0, /*meta_inflight=*/0.0,
                                /*slow_inflight=*/0.0));
}

TEST(BlestTest, AllowsWhenWindowAmple) {
  EXPECT_FALSE(blest_would_block(1.0, 50, 0.05, 0.5, 1428.0,
                                 /*window=*/8'000'000.0, 0.0, 0.0));
}

TEST(BlestTest, LambdaScalesConservatism) {
  const double window = 1'428'000.0;  // exactly 1000 segments
  // sent_f = 10 * (50 + 4.5) * mss = 545 segs -> no block at lambda 1,
  // block at lambda 2.
  EXPECT_FALSE(blest_would_block(1.0, 50, 0.05, 0.5, 1428.0, window, 0.0, 0.0));
  EXPECT_TRUE(blest_would_block(2.0, 50, 0.05, 0.5, 1428.0, window, 0.0, 0.0));
}

TEST(BlestTest, SlowInflightReducesSpace) {
  const double window = 860'000.0;
  EXPECT_FALSE(blest_would_block(1.0, 50, 0.05, 0.5, 1428.0, window, 0.0, 0.0));
  EXPECT_TRUE(blest_would_block(1.0, 50, 0.05, 0.5, 1428.0, window, 0.0,
                                /*slow_inflight=*/100'000.0));
}

// --- registry -------------------------------------------------------------------

TEST(RegistryTest, KnowsAllNames) {
  for (const char* name : {"default", "minrtt", "ecf", "blest", "daps", "rr", "single",
                           "redundant", "qaware", "oco"}) {
    auto factory = scheduler_factory(name);
    EXPECT_NE(factory(), nullptr) << name;
  }
}

TEST(RegistryTest, NamesStayInSyncWithTheFactory) {
  // scheduler_names() is the canonical list: every entry constructs through
  // the factory and reports itself under the same name, so a scheduler added
  // to one side but not the other fails here.
  for (const std::string& name : scheduler_names()) {
    auto sched = scheduler_factory(name)();
    ASSERT_NE(sched, nullptr) << name;
    EXPECT_EQ(std::string(sched->name()), name);
  }
  EXPECT_EQ(scheduler_names().size(), 9u);
  // "minrtt" is an alias, not a canonical name.
  EXPECT_EQ(std::string(scheduler_factory("minrtt")()->name()), "default");
}

TEST(RegistryTest, ThrowsOnUnknown) {
  EXPECT_THROW(scheduler_factory("nope"), std::invalid_argument);
}

TEST(RegistryTest, UnknownNameErrorEnumeratesEveryRegisteredName) {
  try {
    scheduler_factory("nope");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nope"), std::string::npos);
    for (const std::string& name : scheduler_names()) {
      EXPECT_NE(what.find(name), std::string::npos) << name;
    }
  }
}

TEST(RegistryTest, PaperSchedulersListsFour) {
  EXPECT_EQ(paper_schedulers().size(), 4u);
}

// --- behavioural tests over a live connection -----------------------------------

WorldConfig hetero() {
  WorldConfig tb = two_path_config(1.0, 10.0);
  return tb;
}

TEST(SchedulerBehaviourTest, SinglePathUsesOnlyPrimary) {
  World bed(hetero());
  auto conn = bed.make_connection([] { return std::make_unique<SinglePathScheduler>(0); });
  conn->send(200'000);
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(20));
  EXPECT_GT(conn->subflows()[0]->stats().segments_sent, 0u);
  EXPECT_EQ(conn->subflows()[1]->stats().segments_sent, 0u);
}

TEST(SchedulerBehaviourTest, RoundRobinBalancesHomogeneousPaths) {
  WorldConfig tb = two_path_config(5, 5);
  // Equalize base RTTs: with asymmetric RTTs the faster path legitimately
  // refills its send queue more often even under round robin.
  tb.paths[1].rtt_base = tb.paths[0].rtt_base;
  tb.conn.delayed_secondary_join = false;
  World bed(tb);
  auto conn = bed.make_connection([] { return std::make_unique<RoundRobinScheduler>(); });
  BulkSender sender(*conn, 1'000'000);
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(20));
  const double a = static_cast<double>(conn->subflows()[0]->stats().segments_sent);
  const double b = static_cast<double>(conn->subflows()[1]->stats().segments_sent);
  EXPECT_NEAR(a / (a + b), 0.5, 0.1);
}

TEST(SchedulerBehaviourTest, MinRttPrefersFastPath) {
  World bed(hetero());
  auto conn = bed.make_connection(scheduler_factory("default"));
  BulkSender sender(*conn, 3'000'000);
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(20));
  // The 10 Mbps LTE path must carry the bulk of a 3 MB transfer. (The
  // min-RTT default still tops up the slow path's send queue whenever the
  // fast one is saturated — the paper's under-utilization pattern — so the
  // split is far from the 10:1 capacity ratio.)
  const auto wifi = conn->subflows()[0]->stats().bytes_sent;
  const auto lte = conn->subflows()[1]->stats().bytes_sent;
  EXPECT_GT(lte, 2 * wifi);
}

TEST(SchedulerBehaviourTest, EcfReducesSlowPathTailUsage) {
  // On a short transfer over very heterogeneous paths, ECF must send fewer
  // bytes on the slow path than the default scheduler.
  auto bytes_on_wifi = [](const char* sched) {
    WorldConfig tb = two_path_config(0.3, 10.0);
    // Warm start: both subflows usable from t = 0, so the comparison sees
    // scheduling policy rather than the shared MP_JOIN warm-up phase.
    tb.conn.delayed_secondary_join = false;
    World bed(tb);
    auto conn = bed.make_connection(scheduler_factory(sched));
    BulkSender sender(*conn, 2'000'000);
    bed.sim().run_until(TimePoint::origin() + Duration::seconds(120));
    return conn->subflows()[0]->stats().bytes_sent;
  };
  EXPECT_LT(bytes_on_wifi("ecf"), bytes_on_wifi("default"));
}

TEST(SchedulerBehaviourTest, DapsFollowsRttProportionalPlan) {
  WorldConfig tb = two_path_config(5, 5);
  tb.conn.delayed_secondary_join = false;
  World bed(tb);
  auto conn = bed.make_connection([] { return std::make_unique<DapsScheduler>(); });
  BulkSender sender(*conn, 2'000'000);
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(30));
  const double wifi = static_cast<double>(conn->subflows()[0]->stats().segments_sent);
  const double lte = static_cast<double>(conn->subflows()[1]->stats().segments_sent);
  // WiFi RTT (16 ms) << LTE RTT (80 ms): the plan gives WiFi the larger
  // share even though rates are equal.
  EXPECT_GT(wifi, lte);
}

TEST(SchedulerBehaviourTest, RedundantDuplicatesOnBothPaths) {
  WorldConfig tb = two_path_config(5, 5);
  tb.conn.delayed_secondary_join = false;
  World bed(tb);
  auto conn = bed.make_connection([] { return std::make_unique<RedundantScheduler>(); });
  std::uint64_t delivered = 0;
  conn->on_deliver = [&](std::uint64_t b, TimePoint) { delivered += b; };
  BulkSender sender(*conn, 500'000);
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(60));
  // Exactly the payload reaches the app once...
  EXPECT_EQ(delivered, 500'000u);
  // ...but both subflows carried (nearly) the whole stream: originals plus
  // reinjected copies together roughly double the payload on the wire.
  const auto& s0 = conn->subflows()[0]->stats();
  const auto& s1 = conn->subflows()[1]->stats();
  // (Copies are skipped while the sibling's send queue is full, so the
  // duplication factor is below 2x but clearly above 1.2x.)
  const std::uint64_t wire_segments =
      s0.segments_sent + s0.reinjected_segments + s1.segments_sent + s1.reinjected_segments;
  EXPECT_GT(wire_segments, 500'000u / kDefaultMss * 5 / 4);
  EXPECT_GT(s0.reinjected_segments + s1.reinjected_segments, 50u);
  EXPECT_GT(conn->meta_stats().duplicate_segments, 50u);
}

TEST(SchedulerBehaviourTest, RedundantMasksLossLatency) {
  // Redundancy pays off when one path is lossy: the copy on the clean path
  // masks retransmission delays.
  auto ooo_p99 = [](const char* sched) {
    WorldConfig tb = two_path_config(5, 5);
    tb.paths[0].loss_rate = 0.03;
    tb.seed = 11;
    tb.conn.delayed_secondary_join = false;
    World bed(tb);
    auto conn = bed.make_connection(scheduler_factory(sched));
    BulkSender sender(*conn, 1'000'000);
    bed.sim().run_until(TimePoint::origin() + Duration::seconds(120));
    return conn->ooo_delay().quantile(0.99);
  };
  EXPECT_LT(ooo_p99("redundant"), ooo_p99("default"));
}

TEST(SchedulerBehaviourTest, EverySchedulerCompletesTheTransfer) {
  for (const std::string& name : scheduler_names()) {
    World bed(hetero());
    auto conn = bed.make_connection(scheduler_factory(name));
    std::uint64_t delivered = 0;
    conn->on_deliver = [&](std::uint64_t b, TimePoint) { delivered += b; };
    BulkSender sender(*conn, 1'000'000);
    bed.sim().run_until(TimePoint::origin() + Duration::seconds(120));
    EXPECT_EQ(delivered, 1'000'000u) << name;
  }
}

TEST(SchedulerBehaviourTest, QAwarePrefersThePathWithShorterDrainTime) {
  // On 1 Mbps wifi vs 10 Mbps lte, wifi's bottleneck queue fills and its
  // per-packet serialization dominates the drain estimate, so QAware should
  // steer the bulk of the transfer onto lte.
  World bed(hetero());
  auto conn = bed.make_connection(scheduler_factory("qaware"));
  std::uint64_t delivered = 0;
  conn->on_deliver = [&](std::uint64_t b, TimePoint) { delivered += b; };
  BulkSender sender(*conn, 1'000'000);
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(120));
  EXPECT_EQ(delivered, 1'000'000u);
  EXPECT_GT(conn->subflows()[1]->stats().segments_sent,
            conn->subflows()[0]->stats().segments_sent);
}

TEST(SchedulerBehaviourTest, OcoTracksBothPathsWithNormalizedWeights) {
  OcoScheduler* oco = nullptr;
  World bed(hetero());
  auto conn = bed.make_connection([&] {
    auto s = std::make_unique<OcoScheduler>();
    oco = s.get();
    return s;
  });
  std::uint64_t delivered = 0;
  conn->on_deliver = [&](std::uint64_t b, TimePoint) { delivered += b; };
  BulkSender sender(*conn, 1'000'000);
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(120));
  EXPECT_EQ(delivered, 1'000'000u);
  ASSERT_NE(oco, nullptr);
  EXPECT_EQ(oco->tracked_paths(), 2u);
  const double w0 = oco->weight_of(conn->subflows()[0]->id());
  const double w1 = oco->weight_of(conn->subflows()[1]->id());
  EXPECT_GT(w0, 0.0);
  EXPECT_GT(w1, 0.0);
  EXPECT_NEAR(w0 + w1, 1.0, 1e-9);
  // No loss anywhere: the redundancy regime must never arm.
  EXPECT_FALSE(oco->armed());
}

}  // namespace
}  // namespace mps
