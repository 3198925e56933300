// Property-based tests: invariants that must hold for every scheduler,
// bandwidth combination, and seed. Parameterized gtest sweeps the space.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "exp/download.h"
#include "exp/streaming.h"
#include "net/mux.h"
#include "scenario/world.h"
#include "sched/registry.h"
#include "test_util.h"
#include "traffic/engine.h"

namespace mps {
namespace {

using TransferParam = std::tuple<std::string /*sched*/, double /*wifi*/, double /*lte*/,
                                 std::uint64_t /*bytes*/>;

class TransferPropertyTest : public ::testing::TestWithParam<TransferParam> {};

TEST_P(TransferPropertyTest, InvariantsHold) {
  const auto& [sched, wifi, lte, bytes] = GetParam();

  WorldConfig tb = two_path_config(wifi, lte);
  World bed(tb);
  auto conn = bed.make_connection(scheduler_factory(sched));

  std::uint64_t delivered = 0;
  TimePoint last_delivery;
  conn->on_deliver = [&](std::uint64_t b, TimePoint t) {
    EXPECT_GT(b, 0u);
    EXPECT_GE(t, last_delivery);  // delivery times monotone
    last_delivery = t;
    delivered += b;
  };

  std::uint64_t offered = bytes;
  auto push = [&] {
    const std::uint64_t sent = conn->send(offered);
    offered -= sent;
  };
  conn->on_sendable = push;
  push();
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(400));

  // 1. Conservation: every application byte arrives exactly once, in order.
  EXPECT_EQ(delivered, bytes) << sched << " " << wifi << "/" << lte;

  // 2. No phantom bytes: per-subflow original transmissions cover the
  //    stream; combined originals equal the object size.
  std::uint64_t original = 0;
  for (Subflow* sf : conn->subflows()) original += sf->stats().bytes_sent;
  EXPECT_EQ(original, bytes);

  // 3. Out-of-order delays are non-negative and sampled once per delivered
  //    segment. Send-buffer refill boundaries may split a few segments below
  //    the MSS, so the count sits between the minimal segmentation and the
  //    number of segments actually scheduled.
  const Samples& ooo = conn->ooo_delay();
  EXPECT_GE(ooo.min(), 0.0);
  EXPECT_GE(ooo.count(), (bytes + conn->mss() - 1) / conn->mss());
  EXPECT_LE(ooo.count(), conn->meta_stats().segments_scheduled);

  // 4. Meta window respected at rest: nothing outstanding after completion.
  EXPECT_EQ(conn->meta_inflight(), 0u);
  EXPECT_EQ(conn->unscheduled_bytes(), 0u);

  // 5. CWND sanity on every subflow.
  for (Subflow* sf : conn->subflows()) {
    EXPECT_GE(sf->cwnd(), 2.0);
    EXPECT_GE(sf->available_cwnd(), 0);
    EXPECT_EQ(sf->inflight_segments(), 0u);
  }
}

std::string transfer_param_name(const ::testing::TestParamInfo<TransferParam>& info) {
  const std::string sched = std::get<0>(info.param);
  auto fmt = [](double x) {
    std::string s = std::to_string(x);
    for (auto& c : s) {
      if (c == '.') c = '_';
    }
    return s.substr(0, 3);
  };
  return sched + "_w" + fmt(std::get<1>(info.param)) + "_l" + fmt(std::get<2>(info.param)) +
         "_b" + std::to_string(std::get<3>(info.param) / 1000) + "k";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TransferPropertyTest,
    ::testing::Combine(::testing::Values("default", "ecf", "blest", "daps", "rr"),
                       ::testing::Values(0.3, 1.7, 8.6),
                       ::testing::Values(1.1, 8.6),
                       ::testing::Values(std::uint64_t{200'000}, std::uint64_t{2'000'000})),
    transfer_param_name);

// --- lossy-path sweep ---------------------------------------------------------

class LossyPropertyTest : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(LossyPropertyTest, ReliableDeliveryUnderLoss) {
  const auto& [sched, loss] = GetParam();
  WorldConfig tb = two_path_config(2, 8);
  tb.paths[0].loss_rate = loss;
  tb.paths[1].loss_rate = loss / 2;
  tb.seed = 42;
  World bed(tb);
  auto conn = bed.make_connection(scheduler_factory(sched));
  std::uint64_t delivered = 0;
  conn->on_deliver = [&](std::uint64_t b, TimePoint) { delivered += b; };
  BulkSender sender(*conn, 1'000'000);
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(600));
  EXPECT_EQ(delivered, 1'000'000u) << sched << " loss=" << loss;
}

std::string lossy_param_name(
    const ::testing::TestParamInfo<std::tuple<std::string, double>>& info) {
  return std::get<0>(info.param) + "_l" +
         std::to_string(static_cast<int>(std::get<1>(info.param) * 1000));
}

INSTANTIATE_TEST_SUITE_P(LossSweep, LossyPropertyTest,
                         ::testing::Combine(::testing::Values("default", "ecf", "blest"),
                                            ::testing::Values(0.001, 0.01, 0.05)),
                         lossy_param_name);

// --- determinism sweep -----------------------------------------------------------

class DeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DeterminismTest, IdenticalSeedsIdenticalRuns) {
  auto run_once = [&](std::uint64_t seed) {
    StreamingParams p;
    p.paths = two_paths(0.7, 8.6);
    p.video = Duration::seconds(40);
    p.scheduler = scheduler_factory(GetParam());
    p.seed = seed;
    const auto r = run_streaming(p);
    return std::make_tuple(r.mean_bitrate_mbps, r.mean_throughput_mbps, r.fraction_fast,
                           r.ooo_delay.count(), r.iw_resets_lte);
  };
  EXPECT_EQ(run_once(7), run_once(7));
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, DeterminismTest,
                         ::testing::Values("default", "ecf", "blest", "daps"));

// --- download sweep: completion bounded below by the ideal ----------------------

class DownloadBoundTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {};

TEST_P(DownloadBoundTest, NeverFasterThanAggregateCapacity) {
  const auto& [sched, kb] = GetParam();
  DownloadParams p;
  p.paths = two_paths(2, 8);
  p.bytes = kb * 1024;
  p.scheduler = scheduler_factory(sched);
  const auto r = run_download(p);
  // Physical lower bound: wire time at aggregate rate plus one-way request
  // latency (headers ignored -> strictly optimistic).
  const double floor_s = p.bytes * 8.0 / ((p.paths[0].down_rate + p.paths[1].down_rate).bps());
  EXPECT_GT(r.completion.to_seconds(), floor_s);
  EXPECT_LT(r.completion.to_seconds(), 100.0);
  EXPECT_GE(r.fraction_fast, 0.0);
  EXPECT_LE(r.fraction_fast, 1.0);
}

std::string download_param_name(
    const ::testing::TestParamInfo<std::tuple<std::string, std::uint64_t>>& info) {
  return std::get<0>(info.param) + "_" + std::to_string(std::get<1>(info.param)) + "k";
}

INSTANTIATE_TEST_SUITE_P(Sizes, DownloadBoundTest,
                         ::testing::Combine(::testing::Values("default", "ecf"),
                                            ::testing::Values(std::uint64_t{64},
                                                              std::uint64_t{512},
                                                              std::uint64_t{2048})),
                         download_param_name);

// --- mux lifecycle under churn ------------------------------------------------

// After remove_route, an in-flight packet for the removed conn_id must only
// bump the orphan counter — it must never reach the old handler's state.
// The handler's state lives on the heap and is freed before dispatch, so a
// use-after-free here is caught directly by the sanitizer suite
// (check.sh --sanitize) as well as by the sentinel assertions.
TEST(MuxChurn, RemovedRoutePacketsOnlyOrphan) {
  Mux mux;
  auto live_hits = std::make_unique<int>(0);
  auto dead_hits = std::make_unique<int>(0);
  const Mux::Handler count_hit = [](void* n, const Packet&) { ++*static_cast<int*>(n); };
  mux.add_route(1, live_hits.get(), count_hit);
  mux.add_route(2, dead_hits.get(), count_hit);

  Packet pkt;
  pkt.conn_id = 2;
  mux.dispatch(pkt);
  EXPECT_EQ(*dead_hits, 1);

  mux.remove_route(2);
  dead_hits.reset();  // the teardown the handler must not outlive
  for (int i = 0; i < 5; ++i) mux.dispatch(pkt);  // in-flight stragglers
  EXPECT_EQ(mux.orphan_count(), 5u);

  pkt.conn_id = 1;
  mux.dispatch(pkt);
  EXPECT_EQ(*live_hits, 1);  // surviving route unaffected by the churn
  EXPECT_EQ(mux.routed_count(), 2u);
  EXPECT_EQ(mux.orphan_count(), 5u);
}

// Conservation across a real churn run: every packet a downlink delivers is
// either routed to a live connection or counted as an orphan — the counters
// must account for each delivered packet exactly, with no leaks on either
// side of a teardown.
TEST(MuxChurn, RoutedPlusOrphansEqualsDelivered) {
  ScenarioSpec spec = fairness_cell_spec("ecf", 4, 6.0, 65536);
  WorldBuilder builder(spec);
  std::unique_ptr<World> world = builder.build();
  TrafficEngine engine(*world, builder.spec());
  const TrafficResult res = engine.run();
  ASSERT_GT(res.completed, 0u);
  ASSERT_GT(res.orphans, 0u) << "churn run produced no teardown stragglers; "
                                "the conservation check would be vacuous";
  // Links count packets_delivered at end-of-transmission but the mux sees
  // them one propagation delay later; drain so every in-flight arrival fires
  // (all connections are torn down, so stragglers land as orphans).
  world->run_for(Duration::from_seconds(2.0));

  std::uint64_t down_delivered = 0;
  std::uint64_t up_delivered = 0;
  for (std::size_t i = 0; i < world->path_count(); ++i) {
    down_delivered += world->path(i).down().stats().packets_delivered;
    up_delivered += world->path(i).up().stats().packets_delivered;
  }
  const Mux& down = world->down_mux();
  const Mux& up = world->up_mux();
  EXPECT_EQ(down.routed_count() + down.orphan_count(), down_delivered);
  EXPECT_EQ(up.routed_count() + up.orphan_count(), up_delivered);
}

}  // namespace
}  // namespace mps
