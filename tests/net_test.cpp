// Tests for src/net: links, paths, demux, bandwidth schedules, wild profiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <tuple>
#include <vector>

#include "net/link.h"
#include "net/mux.h"
#include "net/path.h"
#include "net/varbw.h"
#include "net/wild.h"
#include "fault/fault.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace mps {
namespace {

Packet data_packet(std::uint32_t payload = 1428, std::uint64_t seq = 0) {
  Packet p;
  p.payload = payload;
  p.subflow_seq = seq;
  return p;
}

class LinkTest : public ::testing::Test {
 protected:
  Simulator sim;
  std::vector<std::pair<TimePoint, Packet>> delivered;

  void attach(Link& link) {
    link.set_deliver([this](Packet p) { delivered.emplace_back(sim.now(), p); });
  }
};

TEST_F(LinkTest, DeliversAfterSerializationPlusPropagation) {
  LinkConfig cfg;
  cfg.rate = Rate::mbps(8);  // 1488 bytes -> 1.488 ms
  cfg.prop_delay = Duration::millis(10);
  Link link(sim, cfg);
  attach(link);

  link.send(data_packet());
  sim.run();

  ASSERT_EQ(delivered.size(), 1u);
  const Duration expected = cfg.rate.transmit_time(1428 + kHeaderBytes) + cfg.prop_delay;
  EXPECT_EQ((delivered[0].first - TimePoint::origin()).ns(), expected.ns());
}

TEST_F(LinkTest, SerializesBackToBack) {
  LinkConfig cfg;
  cfg.rate = Rate::mbps(8);
  cfg.prop_delay = Duration::zero();
  Link link(sim, cfg);
  attach(link);

  link.send(data_packet(1428, 1));
  link.send(data_packet(1428, 2));
  sim.run();

  ASSERT_EQ(delivered.size(), 2u);
  const Duration tx = cfg.rate.transmit_time(1428 + kHeaderBytes);
  EXPECT_EQ((delivered[1].first - delivered[0].first).ns(), tx.ns());
}

TEST_F(LinkTest, PreservesFifoOrder) {
  LinkConfig cfg;
  Link link(sim, cfg);
  attach(link);
  for (std::uint64_t i = 0; i < 20; ++i) link.send(data_packet(1428, i));
  sim.run();
  ASSERT_EQ(delivered.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(delivered[i].second.subflow_seq, i);
}

TEST_F(LinkTest, DropsWhenQueueFull) {
  LinkConfig cfg;
  cfg.queue_packets = 5;
  Link link(sim, cfg);
  attach(link);
  // 1 in service + 5 queued fit; the rest drop.
  for (int i = 0; i < 10; ++i) link.send(data_packet());
  sim.run();
  EXPECT_EQ(delivered.size(), 6u);
  EXPECT_EQ(link.stats().drops_queue, 4u);
  EXPECT_EQ(link.stats().packets_delivered, 6u);
}

TEST_F(LinkTest, RandomLossDropsApproximately) {
  LinkConfig cfg;
  cfg.rate = Rate::gbps(10);
  cfg.loss_rate = 0.3;
  cfg.queue_packets = 100000;
  Link link(sim, cfg);
  link.set_rng(Rng(123));
  attach(link);
  const int n = 20000;
  for (int i = 0; i < n; ++i) link.send(data_packet());
  sim.run();
  EXPECT_NEAR(static_cast<double>(link.stats().drops_random) / n, 0.3, 0.02);
}

TEST_F(LinkTest, ZeroLossNeverDrops) {
  LinkConfig cfg;
  cfg.rate = Rate::gbps(10);
  cfg.queue_packets = 100000;
  Link link(sim, cfg);
  attach(link);
  for (int i = 0; i < 5000; ++i) link.send(data_packet());
  sim.run();
  EXPECT_EQ(link.stats().drops_random, 0u);
  EXPECT_EQ(link.stats().packets_delivered, 5000u);
}

TEST_F(LinkTest, RateChangeAppliesToNextTransmission) {
  LinkConfig cfg;
  cfg.rate = Rate::mbps(1);
  cfg.prop_delay = Duration::zero();
  Link link(sim, cfg);
  attach(link);
  link.send(data_packet());
  link.set_rate(Rate::mbps(100));
  link.send(data_packet());
  sim.run();
  ASSERT_EQ(delivered.size(), 2u);
  const Duration first = delivered[0].first - TimePoint::origin();
  const Duration second_tx = delivered[1].first - delivered[0].first;
  // First at 1 Mbps (11.9 ms), second at 100 Mbps (0.119 ms).
  EXPECT_NEAR(first.to_seconds(), 0.0119, 1e-4);
  EXPECT_NEAR(second_tx.to_seconds(), 0.000119, 2e-5);
}

TEST_F(LinkTest, ZeroRateParksPacketUntilRateRestored) {
  LinkConfig cfg;
  cfg.rate = Rate::zero();
  cfg.prop_delay = Duration::zero();
  Link link(sim, cfg);
  attach(link);
  link.send(data_packet());
  sim.after(Duration::millis(350), [&] { link.set_rate(Rate::mbps(100)); });
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_GE(delivered[0].first.to_seconds(), 0.35);
  EXPECT_LT(delivered[0].first.to_seconds(), 0.6);
}

// --- propagation pipeline vs a per-packet reference --------------------------
//
// N packets are offered at t = 0 to an 8 Mbps link (tx = 1.488 ms each), so
// packet i finishes serialization at (i+1)*tx. Before any send, a marker
// event is scheduled at every arrival time the reference predicts; a marker
// holds an older stamp than every packet, so it fires first among equal
// times. A per-packet event model fires everything in (time, stamp) order:
// markers first at a shared time, then packets in tx-done order. The link's
// head-only FIFO must produce exactly that log.

// Adds `extra` to every packet whose tx-done index is 1 mod 4: with extra =
// 2*tx it arrives together with packet i+2 (a tie) and packet i+1 overtakes
// it. Stateless, so a fork's clone is a plain copy.
class EveryFourthDelayed final : public FaultModel {
 public:
  EveryFourthDelayed(Duration tx, Duration extra) : tx_(tx), extra_(extra) {}
  bool should_drop(TimePoint, Rng&) override { return false; }
  Duration extra_delay(TimePoint now, Rng&) override {
    return (now.ns() / tx_.ns() - 1) % 4 == 1 ? extra_ : Duration::zero();
  }
  const char* name() const override { return "every_fourth"; }
  std::unique_ptr<FaultModel> clone() const override {
    return std::make_unique<EveryFourthDelayed>(*this);
  }

 private:
  Duration tx_, extra_;
};

struct PipelineLog {
  // (time ns, label): label >= 0 is a packet's subflow_seq, -1 a marker.
  std::vector<std::pair<std::int64_t, std::int64_t>> events;
};

class PipelineTest : public ::testing::Test {
 protected:
  static constexpr int kPackets = 40;
  LinkConfig cfg() const {
    LinkConfig c;
    c.rate = Rate::mbps(8);
    c.prop_delay = Duration::millis(10);
    c.queue_packets = kPackets;
    return c;
  }
  Duration tx() const { return cfg().rate.transmit_time(1428 + kHeaderBytes); }

  // Per-packet reference: packet i arrives at (i+1)*tx + prop(i) + extra(i),
  // where prop(i) follows the delay in force at its tx-done.
  std::vector<std::int64_t> arrivals(bool fault, std::int64_t change_at_ns,
                                     Duration new_prop) const {
    std::vector<std::int64_t> at;
    for (int i = 0; i < kPackets; ++i) {
      const std::int64_t done = (i + 1) * tx().ns();
      std::int64_t a = done + (done > change_at_ns ? new_prop : cfg().prop_delay).ns();
      if (fault && i % 4 == 1) a += 2 * tx().ns();
      at.push_back(a);
    }
    return at;
  }
  static std::vector<std::pair<std::int64_t, std::int64_t>> expected(
      const std::vector<std::int64_t>& at, std::int64_t after_ns) {
    std::vector<std::tuple<std::int64_t, int, std::int64_t>> order;
    for (std::size_t i = 0; i < at.size(); ++i) {
      if (at[i] <= after_ns) continue;
      order.emplace_back(at[i], 0, -1);  // marker: older stamp
      order.emplace_back(at[i], 1, static_cast<std::int64_t>(i));
    }
    std::sort(order.begin(), order.end());
    std::vector<std::pair<std::int64_t, std::int64_t>> out;
    for (const auto& [t, kind, label] : order) out.emplace_back(t, label);
    return out;
  }

  // Wires a link's deliveries and the markers into `log`; returns marker ids.
  std::vector<EventId> arm(Simulator& sim, Link& link, PipelineLog& log,
                           const std::vector<std::int64_t>& at) {
    link.set_deliver([&sim, &log](const Packet& p) {
      log.events.emplace_back(sim.now().ns(), static_cast<std::int64_t>(p.subflow_seq));
    });
    std::vector<EventId> ids;
    for (const std::int64_t t : at) {
      ids.push_back(sim.at(TimePoint::from_ns(t), marker(sim, log)));
    }
    return ids;
  }
  static Callback marker(Simulator& sim, PipelineLog& log) {
    return [&sim, &log] { log.events.emplace_back(sim.now().ns(), -1); };
  }
  void send_all(Link& link) {
    for (int i = 0; i < kPackets; ++i) link.send(data_packet(1428, static_cast<std::uint64_t>(i)));
  }
};

TEST_F(PipelineTest, ReorderFaultMatchesPerPacketOrder) {
  Simulator sim;
  Link link(sim, cfg());
  link.set_fault_model(std::make_unique<EveryFourthDelayed>(tx(), tx() * std::int64_t{2}));
  const auto at = arrivals(true, std::numeric_limits<std::int64_t>::max(), Duration::zero());
  PipelineLog log;
  arm(sim, link, log, at);
  send_all(link);
  sim.run();
  EXPECT_EQ(log.events, expected(at, -1));
  EXPECT_EQ(link.stats().reordered, static_cast<std::uint64_t>(kPackets / 4));
}

TEST_F(PipelineTest, MidFlightPropDelayDecreaseMatchesPerPacketOrder) {
  Simulator sim;
  Link link(sim, cfg());
  // Halfway through packet 10's serialization the delay drops from 10 ms to
  // 1 ms, so packets 10.. overtake every packet still propagating.
  const std::int64_t change = 10 * tx().ns() + tx().ns() / 2;
  const auto at = arrivals(false, change, Duration::millis(1));
  PipelineLog log;
  arm(sim, link, log, at);
  sim.at(TimePoint::from_ns(change), [&link] { link.set_prop_delay(Duration::millis(1)); });
  send_all(link);
  sim.run();
  EXPECT_EQ(log.events, expected(at, -1));
}

TEST_F(PipelineTest, ForkMidPropagationMatchesPerPacketOrder) {
  Simulator sim;
  Link link(sim, cfg());
  link.set_fault_model(std::make_unique<EveryFourthDelayed>(tx(), tx() * std::int64_t{2}));
  const auto at = arrivals(true, std::numeric_limits<std::int64_t>::max(), Duration::zero());
  PipelineLog log;
  const std::vector<EventId> markers = arm(sim, link, log, at);
  send_all(link);
  // Mid-run: packets queued, one in service, a propagation FIFO and
  // overtakers with events of their own.
  const TimePoint fork_at = TimePoint::from_ns(12 * tx().ns() + 10'000'000 + tx().ns() / 3);
  sim.run_until(fork_at);
  ASSERT_TRUE(link.busy());

  // The twin carries a clone of the source's fault model.
  Simulator fork_sim(sim, nullptr);
  Link fork(link, fork_sim);
  PipelineLog fork_log;
  fork.set_deliver([&fork_sim, &fork_log](const Packet& p) {
    fork_log.events.emplace_back(fork_sim.now().ns(), static_cast<std::int64_t>(p.subflow_seq));
  });
  for (const EventId id : markers) {
    if (sim.pending(id)) {
      ASSERT_TRUE(fork_sim.rebind(id, marker(fork_sim, fork_log)));
    }
  }
  std::vector<std::pair<EventId, TimePoint>> unbound;
  fork_sim.collect_unbound_events(unbound);
  ASSERT_TRUE(unbound.empty());

  sim.run();
  fork_sim.run();
  EXPECT_EQ(log.events, expected(at, -1));
  EXPECT_EQ(fork_log.events, expected(at, fork_at.ns()));
  EXPECT_EQ(fork_sim.fire_digest(), sim.fire_digest());
}

// A link whose rate drops to zero mid-run parks its next packet on a 100 ms
// poll; forked while parked, the twin must adopt the poll (not a
// serialization end) and, once the rate is raised again, deliver exactly
// what the source delivers after the fork point, in the same fire order.
TEST_F(PipelineTest, ForkWhileParkedAtZeroRateResumesLikeTheSource) {
  Simulator sim;
  Link link(sim, cfg());
  PipelineLog log;
  link.set_deliver([&sim, &log](const Packet& p) {
    log.events.emplace_back(sim.now().ns(), static_cast<std::int64_t>(p.subflow_seq));
  });
  send_all(link);
  // Packet 5 finishes at the old rate; packet 6 then parks.
  const TimePoint stop_at = TimePoint::from_ns(5 * tx().ns() + tx().ns() / 2);
  sim.at(stop_at, [&link] { link.set_rate(Rate::zero()); });
  const auto raise = [](Link& l) { return [&l] { l.set_rate(Rate::mbps(8)); }; };
  const EventId raise_id = sim.at(stop_at + Duration::millis(350), raise(link));
  const TimePoint fork_at = stop_at + Duration::millis(150);
  sim.run_until(fork_at);
  ASSERT_TRUE(link.busy());
  ASSERT_EQ(link.queue_depth(), static_cast<std::size_t>(kPackets - 7));

  Simulator fork_sim(sim, nullptr);
  Link fork(link, fork_sim);
  PipelineLog fork_log;
  fork.set_deliver([&fork_sim, &fork_log](const Packet& p) {
    fork_log.events.emplace_back(fork_sim.now().ns(), static_cast<std::int64_t>(p.subflow_seq));
  });
  ASSERT_TRUE(fork_sim.rebind(raise_id, raise(fork)));
  std::vector<std::pair<EventId, TimePoint>> unbound;
  fork_sim.collect_unbound_events(unbound);
  ASSERT_TRUE(unbound.empty());
  EXPECT_EQ(fork.rate().to_mbps(), 0.0);

  sim.run();
  fork_sim.run();
  ASSERT_EQ(log.events.size(), static_cast<std::size_t>(kPackets));
  std::vector<std::pair<std::int64_t, std::int64_t>> after_fork;
  for (const auto& e : log.events) {
    if (e.first > fork_at.ns()) after_fork.push_back(e);
  }
  ASSERT_FALSE(after_fork.empty());
  EXPECT_EQ(fork_log.events, after_fork);
  EXPECT_EQ(fork.stats().packets_delivered, link.stats().packets_delivered);
  EXPECT_EQ(fork_sim.fire_digest(), sim.fire_digest());
  EXPECT_EQ(fork_sim.events_processed(), sim.events_processed());
}

TEST_F(LinkTest, QueueFullDropsGrowNoPoolSlot) {
  LinkConfig cfg;
  cfg.queue_packets = 5;
  Link link(sim, cfg);
  attach(link);
  for (int i = 0; i < 6; ++i) link.send(data_packet());  // 1 in service + 5 queued
  const std::size_t slots = link.pool_slots();
  ASSERT_GT(slots, 0u);
  for (int i = 0; i < 1000; ++i) link.send(data_packet());  // every one drops
  EXPECT_EQ(link.stats().drops_queue, 1000u);
  EXPECT_EQ(link.pool_slots(), slots);
  sim.run();
  EXPECT_EQ(delivered.size(), 6u);
}

TEST(PathTest, ProfilesMatchPaperBaseRtts) {
  EXPECT_LT(wifi_profile(Rate::mbps(8.6)).rtt_base, lte_profile(Rate::mbps(8.6)).rtt_base);
  EXPECT_EQ(wifi_profile(Rate::mbps(1)).name, "wifi");
  EXPECT_EQ(lte_profile(Rate::mbps(1)).name, "lte");
}

TEST(PathTest, DownAndUpShareBaseDelay) {
  Simulator sim;
  Path path(sim, wifi_profile(Rate::mbps(10)));
  EXPECT_EQ(path.down().prop_delay().ns() + path.up().prop_delay().ns(),
            path.rtt_base().ns());
}

TEST(PathTest, SetDownRate) {
  Simulator sim;
  Path path(sim, wifi_profile(Rate::mbps(10)));
  path.set_down_rate(Rate::mbps(2.5));
  EXPECT_DOUBLE_EQ(path.down_rate().to_mbps(), 2.5);
}

// Mux handler: counts packets into the int the route was registered with.
void count_hit(void* counter, const Packet&) { ++*static_cast<int*>(counter); }

TEST(MuxTest, RoutesByConnId) {
  Mux mux;
  int a = 0, b = 0;
  mux.add_route(1, &a, count_hit);
  mux.add_route(2, &b, count_hit);
  Packet p;
  p.conn_id = 1;
  mux.dispatch(p);
  p.conn_id = 2;
  mux.dispatch(p);
  mux.dispatch(p);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(MuxTest, OrphansCountedNotCrashed) {
  Mux mux;
  Packet p;
  p.conn_id = 42;
  mux.dispatch(p);
  EXPECT_EQ(mux.orphan_count(), 1u);
}

TEST(MuxTest, RemoveRouteOrphansLatePackets) {
  Mux mux;
  int hits = 0;
  mux.add_route(7, &hits, count_hit);
  mux.remove_route(7);
  Packet p;
  p.conn_id = 7;
  mux.dispatch(p);
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(mux.orphan_count(), 1u);
}

TEST(MuxTest, IdsOutsideTheTableAreOrphans) {
  Mux mux;
  int hits = 0;
  mux.add_route(3, &hits, count_hit);
  Packet p;
  for (const std::uint32_t id : {0u, 2u, 4u, 1000u}) {
    p.conn_id = id;
    mux.dispatch(p);
  }
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(mux.orphan_count(), 4u);
  mux.remove_route(1000);  // past the table: a no-op
  p.conn_id = 3;
  mux.dispatch(p);
  EXPECT_EQ(hits, 1);
}

TEST(MuxTest, RemoveThenReAddRoutesAgain) {
  Mux mux;
  int first = 0, second = 0;
  Packet p;
  p.conn_id = 5;
  mux.add_route(5, &first, count_hit);
  mux.dispatch(p);
  mux.remove_route(5);
  mux.dispatch(p);
  mux.add_route(5, &second, count_hit);
  mux.dispatch(p);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(mux.routed_count(), 2u);
  EXPECT_EQ(mux.orphan_count(), 1u);
}

// A handler may register routes while it runs, growing the table under it.
TEST(MuxTest, HandlerMayGrowTheTable) {
  struct Endpoint {
    Mux* mux;
    int hits = 0;
  };
  Mux mux;
  Endpoint ep{&mux};
  const Mux::Handler grow = [](void* self, const Packet& p) {
    Endpoint& e = *static_cast<Endpoint*>(self);
    ++e.hits;
    e.mux->add_route(p.conn_id + 4096, self, [](void* s, const Packet&) {
      ++static_cast<Endpoint*>(s)->hits;
    });
  };
  mux.add_route(1, &ep, grow);
  Packet p;
  p.conn_id = 1;
  mux.dispatch(p);
  p.conn_id = 4097;
  mux.dispatch(p);
  EXPECT_EQ(ep.hits, 2);
  EXPECT_EQ(mux.routed_count(), 2u);
}

// Under random add/remove churn every dispatched packet is either routed to
// the endpoint registered at that moment or orphaned.
TEST(MuxTest, RoutedPlusOrphansConservedUnderChurn) {
  constexpr std::uint32_t kIds = 64;
  Mux mux;
  std::vector<int> hits(kIds, 0);
  std::vector<bool> live(kIds, false);
  std::vector<int> expected(kIds, 0);
  Rng rng(7);
  std::uint64_t dispatched = 0, expected_orphans = 0;
  for (int step = 0; step < 5000; ++step) {
    const auto id = static_cast<std::uint32_t>(rng.uniform_int(kIds + 8));  // some past the ids
    const double u = rng.uniform();
    if (id < kIds && u < 0.1) {
      mux.add_route(id, &hits[id], count_hit);
      live[id] = true;
    } else if (id < kIds && u < 0.2) {
      mux.remove_route(id);
      live[id] = false;
    } else {
      Packet p;
      p.conn_id = id;
      mux.dispatch(p);
      ++dispatched;
      if (id < kIds && live[id]) {
        ++expected[id];
      } else {
        ++expected_orphans;
      }
    }
  }
  EXPECT_EQ(hits, expected);
  EXPECT_EQ(mux.orphan_count(), expected_orphans);
  EXPECT_EQ(mux.routed_count() + mux.orphan_count(), dispatched);
}

TEST(VarBwTest, ScheduleAppliesRatesAtOffsets) {
  Simulator sim;
  Path path(sim, wifi_profile(Rate::mbps(1)));
  BandwidthSchedule sched(sim, path,
                          {{Duration::zero(), Rate::mbps(2)},
                           {Duration::seconds(1), Rate::mbps(5)},
                           {Duration::seconds(2), Rate::mbps(3)}});
  sim.run_until(TimePoint::origin() + Duration::millis(500));
  EXPECT_DOUBLE_EQ(path.down_rate().to_mbps(), 2.0);
  sim.run_until(TimePoint::origin() + Duration::millis(1500));
  EXPECT_DOUBLE_EQ(path.down_rate().to_mbps(), 5.0);
  sim.run_until(TimePoint::origin() + Duration::millis(2500));
  EXPECT_DOUBLE_EQ(path.down_rate().to_mbps(), 3.0);
}

TEST(VarBwTest, RandomTraceCoversDurationAndLevels) {
  Rng rng(5);
  const std::vector<Rate> levels = {Rate::mbps(0.3), Rate::mbps(1.1), Rate::mbps(8.6)};
  const auto trace = make_random_bandwidth_trace(rng, levels, Duration::seconds(40),
                                                 Duration::seconds(1200));
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.front().at.ns(), 0);
  EXPECT_LT(trace.back().at, Duration::seconds(1200));
  for (const auto& c : trace) {
    bool known = false;
    for (const Rate& l : levels) known = known || l.bps() == c.rate.bps();
    EXPECT_TRUE(known);
  }
  // Mean interval ~40 s over 1200 s -> ~30 changes; generously bounded.
  EXPECT_GT(trace.size(), 10u);
  EXPECT_LT(trace.size(), 90u);
}

TEST(VarBwTest, TraceIsDeterministicPerSeed) {
  const std::vector<Rate> levels = {Rate::mbps(1), Rate::mbps(2)};
  Rng a(9), b(9);
  const auto ta = make_random_bandwidth_trace(a, levels, Duration::seconds(40),
                                              Duration::seconds(600));
  const auto tb = make_random_bandwidth_trace(b, levels, Duration::seconds(40),
                                              Duration::seconds(600));
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].at.ns(), tb[i].at.ns());
    EXPECT_EQ(ta[i].rate.bps(), tb[i].rate.bps());
  }
}

TEST(WildTest, NineRunsSortedByWifiRtt) {
  const auto runs = wild_streaming_runs();
  ASSERT_EQ(runs.size(), 9u);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_GT(runs[i].wifi.rtt_base, runs[i - 1].wifi.rtt_base);
    EXPECT_EQ(runs[i].run_index, static_cast<int>(i) + 1);
  }
  // LTE stays roughly constant (paper Fig. 22a).
  for (const auto& r : runs) {
    EXPECT_EQ(r.lte.rtt_base.ns(), Duration::millis(70).ns());
  }
}

TEST(WildTest, WebProfileIsHeterogeneous) {
  const auto p = wild_web_profile();
  EXPECT_GT(p.wifi.rtt_base, p.lte.rtt_base);
  EXPECT_LT(p.wifi.down_rate.to_mbps(), p.lte.down_rate.to_mbps());
}

}  // namespace
}  // namespace mps
