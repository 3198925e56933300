// Tests for src/tcp: RTT estimation and the Subflow sender state machine,
// driven through a real path + receiver loop.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "net/path.h"
#include "sim/simulator.h"
#include "tcp/cc_reno.h"
#include "tcp/rtt.h"
#include "tcp/subflow.h"
#include "util/rng.h"

namespace mps {
namespace {

// --- RttEstimator -----------------------------------------------------------

TEST(RttEstimatorTest, FirstSamplePerRfc6298) {
  RttEstimator est;
  est.add_sample(Duration::millis(100));
  EXPECT_EQ(est.srtt().ns(), Duration::millis(100).ns());
  EXPECT_EQ(est.rttvar().ns(), Duration::millis(50).ns());
  // RTO = 100 + 4*50 = 300 ms.
  EXPECT_EQ(est.rto().ns(), Duration::millis(300).ns());
}

TEST(RttEstimatorTest, EwmaSmoothing) {
  RttEstimator est;
  est.add_sample(Duration::millis(100));
  est.add_sample(Duration::millis(200));
  // srtt = 7/8*100 + 1/8*200 = 112.5 ms
  EXPECT_NEAR(est.srtt().to_millis(), 112.5, 0.01);
  // rttvar = 3/4*50 + 1/4*|200-100| = 62.5 ms
  EXPECT_NEAR(est.rttvar().to_millis(), 62.5, 0.01);
}

TEST(RttEstimatorTest, RtoClampedToMinimum) {
  RttEstimator est;
  for (int i = 0; i < 50; ++i) est.add_sample(Duration::millis(10));
  EXPECT_EQ(est.rto().ns(), Duration::millis(200).ns());  // TCP_RTO_MIN
}

TEST(RttEstimatorTest, InitialRtoOneSecond) {
  RttEstimator est;
  EXPECT_EQ(est.rto().ns(), Duration::seconds(1).ns());
}

TEST(RttEstimatorTest, MinAndLifetimeTrackAllSamples) {
  RttEstimator est;
  est.add_sample(Duration::millis(30));
  est.add_sample(Duration::millis(10));
  est.add_sample(Duration::millis(20));
  EXPECT_EQ(est.min_rtt().ns(), Duration::millis(10).ns());
  EXPECT_EQ(est.lifetime().count(), 3u);
  EXPECT_NEAR(est.lifetime().mean(), 0.020, 1e-9);
}

TEST(RttEstimatorTest, StddevReflectsVariability) {
  RttEstimator stable, jittery;
  for (int i = 0; i < 16; ++i) {
    stable.add_sample(Duration::millis(100));
    jittery.add_sample(Duration::millis(i % 2 == 0 ? 50 : 150));
  }
  EXPECT_LT(stable.stddev().to_seconds(), 1e-6);
  EXPECT_GT(jittery.stddev().to_seconds(), 0.04);
}

TEST(RttEstimatorTest, NegativeSampleIgnored) {
  RttEstimator est;
  est.add_sample(Duration::millis(-5));
  EXPECT_FALSE(est.has_sample());
}

// --- Subflow harness ---------------------------------------------------------

// Minimal meta sink: acks everything immediately at the meta level.
class FakeSink final : public MetaSink {
 public:
  void on_subflow_deliver(std::uint32_t, std::uint64_t data_seq, std::uint32_t payload,
                          TimePoint) override {
    delivered_bytes += payload;
    data_ack = std::max(data_ack, data_seq + payload);
  }
  std::uint64_t meta_data_ack() const override { return data_ack; }
  std::uint64_t meta_rwnd() const override { return 64 << 20; }

  std::uint64_t delivered_bytes = 0;
  std::uint64_t data_ack = 0;
};

class SubflowHarness {
 public:
  explicit SubflowHarness(PathConfig path_config = wifi_profile(Rate::mbps(10)),
                          SubflowConfig sf_config = {})
      : config(sf_config),
        path(sim, path_config),
        receiver(sim, 0, 0, path, &sink),
        subflow(sim, config, 0, path, CcKind::kReno, nullptr) {
    path.down().set_deliver([this](Packet p) { receiver.on_data_packet(p); });
    path.up().set_deliver([this](Packet p) { subflow.on_ack_packet(p); });
  }

  // Sends as much of [next_data_seq, total) as CWND allows; call repeatedly.
  void pump(std::uint64_t total_bytes) {
    while (subflow.can_send() && next_data_seq < total_bytes) {
      const std::uint32_t payload = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(subflow.mss(), total_bytes - next_data_seq));
      subflow.send_segment(next_data_seq, payload);
      next_data_seq += payload;
    }
  }

  // Runs the transfer of `total` bytes to completion (with periodic
  // pumping); the clock stops at delivery of the last byte.
  void transfer(std::uint64_t total, Duration deadline = Duration::seconds(120)) {
    std::function<void()> driver = [this, total, &driver] {
      if (sink.delivered_bytes >= total) {
        sim.request_stop();
        return;
      }
      pump(total);
      sim.after(Duration::millis(1), driver);
    };
    driver();
    sim.run_until(TimePoint::origin() + deadline);
  }

  Simulator sim;
  FakeSink sink;
  SubflowConfig config;  // the subflow reads it by reference
  Path path;
  SubflowReceiver receiver;
  Subflow subflow;
  std::uint64_t next_data_seq = 0;
};

TEST(SubflowTest, SlowStartDoublesPerRtt) {
  SubflowHarness h;
  h.pump(10 * 1428);  // exactly IW
  EXPECT_FALSE(h.subflow.can_send());
  // One RTT plus the 10-segment serialization time, with margin.
  h.sim.run_until(TimePoint::origin() + h.path.rtt_base() + Duration::millis(25));
  // All 10 acked, +1 per ack in slow start.
  EXPECT_NEAR(h.subflow.cwnd(), 20.0, 0.01);
  EXPECT_EQ(h.subflow.inflight_segments(), 0u);
}

TEST(SubflowTest, TransferCompletesAtApproximatelyLinkRate) {
  SubflowHarness h(wifi_profile(Rate::mbps(10)));
  const std::uint64_t total = 4 * 1024 * 1024;
  h.transfer(total);
  ASSERT_EQ(h.sink.delivered_bytes, total);
  const double secs = h.sim.now().to_seconds();
  const double goodput_mbps = total * 8.0 / secs / 1e6;
  // Within 70-100% of the regulated 10 Mbps (slow start + header overhead).
  EXPECT_GT(goodput_mbps, 7.0);
  EXPECT_LT(goodput_mbps, 10.0);
}

TEST(SubflowTest, RttSamplesTrackPathRtt) {
  SubflowHarness h(wifi_profile(Rate::mbps(10)));
  h.transfer(200 * 1428);
  EXPECT_GT(h.subflow.stats().rtt_samples, 50u);
  // Base RTT 16 ms + queueing; srtt must be in a sane band.
  EXPECT_GT(h.subflow.srtt().to_millis(), 15.0);
  EXPECT_LT(h.subflow.srtt().to_millis(), 150.0);
}

TEST(SubflowTest, LossTriggersFastRecoveryNotRto) {
  PathConfig pc = wifi_profile(Rate::mbps(10));
  pc.queue_packets = 8;  // force overflow during slow start
  SubflowHarness h(pc);
  h.transfer(1000 * 1428);
  EXPECT_EQ(h.sink.delivered_bytes, 1000u * 1428u);
  EXPECT_GT(h.subflow.stats().fast_retransmits, 0u);
  EXPECT_EQ(h.subflow.stats().rto_events, 0u);
  EXPECT_GT(h.subflow.stats().retransmits, 0u);
}

TEST(SubflowTest, AllBytesDeliveredDespiteRandomLoss) {
  PathConfig pc = wifi_profile(Rate::mbps(10));
  pc.loss_rate = 0.02;
  SubflowHarness h(pc);
  h.path.down().set_rng(Rng(7));
  h.transfer(2000 * 1428, Duration::seconds(300));
  EXPECT_EQ(h.sink.delivered_bytes, 2000u * 1428u);
  EXPECT_GT(h.subflow.stats().retransmits, 10u);
}

TEST(SubflowTest, TailLossRecoveredByRto) {
  SubflowHarness h;
  // Send 5 segments; drop the last by shrinking the queue mid-flight is
  // fiddly — instead use a lossy one-shot: set 100% loss for the last send.
  h.pump(4 * 1428);
  h.path.down().set_loss_rate(1.0);
  h.path.down().set_rng(Rng(1));
  h.subflow.send_segment(4 * 1428, 1428);
  h.path.down().set_loss_rate(0.0);
  h.sim.run_until(TimePoint::origin() + Duration::seconds(5));
  EXPECT_EQ(h.sink.delivered_bytes, 5u * 1428u);
  EXPECT_GE(h.subflow.stats().rto_events, 1u);
}

TEST(SubflowTest, IdleResetRestoresInitialWindowAndKeepsSsthreshMemory) {
  SubflowConfig sc;
  sc.idle_cwnd_reset = true;
  SubflowHarness h(wifi_profile(Rate::mbps(10)), sc);
  h.transfer(500 * 1428);
  h.sim.run();  // drain in-flight acks so the window is quiescent
  const double cwnd_before = h.subflow.cwnd();
  ASSERT_GT(cwnd_before, 20.0);

  // Go idle well past the RTO, then poll (as the connection does).
  h.sim.run_until(h.sim.now() + Duration::seconds(5));
  h.subflow.poll();
  EXPECT_NEAR(h.subflow.cwnd(), 10.0, 0.01);
  EXPECT_EQ(h.subflow.stats().idle_resets, 1u);
  // RFC 2861: ssthresh remembers 3/4 of the achieved window.
  EXPECT_GE(h.subflow.ssthresh(), 0.75 * cwnd_before - 0.01);
  EXPECT_TRUE(h.subflow.in_slow_start());
}

TEST(SubflowTest, IdleResetDisabledKeepsWindow) {
  SubflowConfig sc;
  sc.idle_cwnd_reset = false;
  SubflowHarness h(wifi_profile(Rate::mbps(10)), sc);
  h.transfer(500 * 1428);
  h.sim.run();  // drain in-flight acks so the window is quiescent
  const double cwnd_before = h.subflow.cwnd();
  h.sim.run_until(h.sim.now() + Duration::seconds(5));
  h.subflow.poll();
  EXPECT_DOUBLE_EQ(h.subflow.cwnd(), cwnd_before);
  EXPECT_EQ(h.subflow.stats().idle_resets, 0u);
}

TEST(SubflowTest, IdleResetCountedOncePerIdlePeriod) {
  SubflowHarness h;
  h.transfer(500 * 1428);
  h.sim.run_until(h.sim.now() + Duration::seconds(5));
  h.subflow.poll();
  h.subflow.poll();
  h.subflow.poll();
  EXPECT_EQ(h.subflow.stats().idle_resets, 1u);
}

TEST(SubflowTest, PenalizeHalvesCwndOncePerRtt) {
  SubflowHarness h;
  h.transfer(500 * 1428);
  const double before = h.subflow.cwnd();
  h.subflow.penalize();
  EXPECT_NEAR(h.subflow.cwnd(), before / 2, 0.01);
  h.subflow.penalize();  // rate-limited: no further halving within one RTT
  EXPECT_NEAR(h.subflow.cwnd(), before / 2, 0.01);
  EXPECT_EQ(h.subflow.stats().penalizations, 1u);
}

TEST(SubflowTest, JoinDelayGatesEstablishment) {
  const SubflowConfig sc;
  Simulator sim;
  Path path(sim, lte_profile(Rate::mbps(10)));
  Subflow sf(sim, sc, 0, path, CcKind::kReno, nullptr, Duration::millis(80));
  EXPECT_FALSE(sf.established());
  EXPECT_FALSE(sf.can_send());
  sim.run_until(TimePoint::origin() + Duration::millis(81));
  EXPECT_TRUE(sf.established());
  EXPECT_TRUE(sf.can_send());
}

TEST(SubflowTest, RttEstimateFallsBackToPathBase) {
  Simulator sim;
  Path path(sim, lte_profile(Rate::mbps(10)));
  const SubflowConfig sc;
  Subflow sf(sim, sc, 0, path, CcKind::kReno, nullptr);
  EXPECT_EQ(sf.rtt_estimate().ns(), path.rtt_base().ns());
}

TEST(SubflowTest, AvailableCwndNeverNegative) {
  SubflowHarness h;
  h.pump(10 * 1428);
  EXPECT_GE(h.subflow.available_cwnd(), 0);
  EXPECT_EQ(h.subflow.inflight_segments(), 10u);
}

TEST(SubflowTest, ByteCountersTrackOriginalTransmissionsOnly) {
  SubflowHarness h;
  h.transfer(100 * 1428);
  EXPECT_EQ(h.subflow.stats().segments_sent, 100u);
  EXPECT_EQ(h.subflow.stats().bytes_sent, 100u * 1428u);
  EXPECT_EQ(h.subflow.stats().reinjected_segments, 0u);
}

TEST(SubflowTest, ReceiverDeliversSubflowInOrderAfterLoss) {
  PathConfig pc = wifi_profile(Rate::mbps(10));
  pc.queue_packets = 6;
  SubflowHarness h(pc);
  std::vector<std::uint64_t> seqs;
  // Track order at the sink via a richer sink: replace deliver hook by
  // checking monotone data_ack growth instead.
  h.transfer(500 * 1428);
  EXPECT_EQ(h.sink.data_ack, 500u * 1428u);
  EXPECT_EQ(h.receiver.ooo_held(), 0u);
}

TEST(SubflowTest, CwndNotInflatedWhenAppLimited) {
  SubflowHarness h;
  // Trickle one segment per RTT: app-limited, cwnd must stay near IW even
  // though every ack succeeds.
  for (int i = 0; i < 30; ++i) {
    h.subflow.send_segment(static_cast<std::uint64_t>(i) * 1428, 1428);
    h.sim.run_until(h.sim.now() + Duration::millis(40));
  }
  EXPECT_LT(h.subflow.cwnd(), 13.0);
}

// --- Run-length staging --------------------------------------------------------

// The per-segment reference for the staging queue: a subflow transmits the
// segments assigned to it in assignment order and stages whatever it has not
// sent yet. So at every point the scoreboard [snd_una, next_seq) holds
// assigned[snd_una, next_seq), staged_bytes() is the payload of
// assigned[next_seq, end), and collect_data_ranges() lists one range per
// segment — the scoreboard's, then the staged suffix's — however the queue
// groups them into runs.
struct AssignedSeg {
  std::uint64_t data_seq;
  std::uint32_t payload;
  bool reinjection;
};

using Ranges = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

// One subflow on its own path, recording what reaches the receiver.
struct StagingLane {
  StagingLane(Simulator& sim, PathConfig path_config, std::uint32_t id)
      : path(sim, path_config),
        receiver(sim, 0, id, path, &sink),
        subflow(sim, config, id, path, CcKind::kReno, nullptr) {
    path.down().set_deliver([this](const Packet& p) {
      if (p.subflow_seq >= delivered.size()) delivered.resize(p.subflow_seq + 1);
      delivered[p.subflow_seq] = {p.data_seq, p.data_seq + p.payload};
      receiver.on_data_packet(p);
    });
    path.up().set_deliver([this](const Packet& p) { subflow.on_ack_packet(p); });
  }

  void assign(std::uint64_t data_seq, std::uint32_t payload, bool reinjection) {
    assigned.push_back(AssignedSeg{data_seq, payload, reinjection});
    subflow.assign_segment(data_seq, payload, reinjection);
  }

  void expect_matches_reference() const {
    const SeqRing<SentSeg>& flight = subflow.inflight();
    ASSERT_LE(subflow.next_seq(), assigned.size());
    Ranges expected;
    for (std::uint64_t seq = flight.lo(); seq != flight.hi(); ++seq) {
      ASSERT_EQ(flight[seq].data_seq, assigned[seq].data_seq) << "seq " << seq;
      ASSERT_EQ(flight[seq].payload, assigned[seq].payload) << "seq " << seq;
      expected.emplace_back(flight[seq].data_seq, flight[seq].data_seq + flight[seq].payload);
    }
    std::uint64_t staged = 0;
    for (std::size_t i = subflow.next_seq(); i < assigned.size(); ++i) {
      staged += assigned[i].payload;
      expected.emplace_back(assigned[i].data_seq, assigned[i].data_seq + assigned[i].payload);
    }
    EXPECT_EQ(subflow.staged_bytes(), staged);
    Ranges actual;
    subflow.collect_data_ranges(actual);
    EXPECT_EQ(actual, expected);

    // Every transmission carried its own segment's reinjection flag.
    std::uint64_t reinjected = 0, original = 0, original_bytes = 0;
    for (std::size_t i = 0; i < subflow.next_seq(); ++i) {
      if (assigned[i].reinjection) {
        ++reinjected;
      } else {
        ++original;
        original_bytes += assigned[i].payload;
      }
    }
    EXPECT_EQ(subflow.stats().reinjected_segments, reinjected);
    EXPECT_EQ(subflow.stats().segments_sent, original);
    EXPECT_EQ(subflow.stats().bytes_sent, original_bytes);

    // Every packet that reached the receiver, retransmissions included,
    // carried the segment assigned at its subflow sequence number.
    ASSERT_LE(delivered.size(), subflow.next_seq());
    for (std::size_t i = 0; i < delivered.size(); ++i) {
      if (delivered[i].second == 0) continue;  // not (yet) received
      ASSERT_EQ(delivered[i].first, assigned[i].data_seq) << "subflow seq " << i;
      ASSERT_EQ(delivered[i].second, assigned[i].data_seq + assigned[i].payload);
    }
  }

  FakeSink sink;
  const SubflowConfig config;  // the subflow reads it by reference
  Path path;
  SubflowReceiver receiver;
  Subflow subflow;
  std::vector<AssignedSeg> assigned;
  Ranges delivered;  // by subflow sequence number; {0, 0} = not received
};

// Random interleaved assignments over two subflows — so a lane's runs break
// whenever the other lane takes data in between — with reinjection modes
// flipping on and off, short segments, and the clock advanced in small steps
// so acks open each window gradually and drain the runs from the front. The
// offered load exceeds both paths, so the staging limits fill and the
// queues overflow now and then (loss recovery runs alongside).
void run_staging_equivalence(std::uint64_t seed) {
  Simulator sim;
  StagingLane wifi(sim, wifi_profile(Rate::mbps(1)), 0);
  StagingLane lte(sim, lte_profile(Rate::mbps(1)), 1);
  StagingLane* lanes[2] = {&wifi, &lte};
  bool reinjecting[2] = {false, false};
  Rng rng(seed);
  std::uint64_t next_data = 0;
  std::uint64_t reinject_cursor = 0;  // walks already-assigned data in order

  std::uint64_t deepest_backlog[2] = {0, 0};
  for (int step = 0; step < 300; ++step) {
    const int assigns = static_cast<int>(rng.uniform_int(14));
    for (int a = 0; a < assigns; ++a) {
      const std::size_t k = rng.uniform() < 0.6 ? 0 : 1;
      StagingLane& lane = *lanes[k];
      if (!lane.subflow.can_accept()) continue;
      if (rng.uniform() < 0.1) reinjecting[k] = !reinjecting[k];
      // A reinjection copies old data, or continues the data sequence so
      // that only the flag tells it apart from the run it follows.
      if (reinjecting[k] && rng.uniform() < 0.5 &&
          reinject_cursor + kDefaultMss <= next_data) {
        lane.assign(reinject_cursor, kDefaultMss, true);
        reinject_cursor += kDefaultMss;
        continue;
      }
      const std::uint32_t payload =
          rng.uniform() < 0.1 ? 1 + static_cast<std::uint32_t>(rng.uniform_int(kDefaultMss - 1))
                              : kDefaultMss;
      lane.assign(next_data, payload, reinjecting[k]);
      next_data += payload;
    }
    for (std::size_t k = 0; k < 2; ++k) {
      deepest_backlog[k] = std::max(deepest_backlog[k], lanes[k]->subflow.staged_bytes());
    }
    sim.run_until(sim.now() + Duration::millis(static_cast<std::int64_t>(rng.uniform_int(25))));
    for (const StagingLane* lane : lanes) {
      lane->expect_matches_reference();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // Both lanes really built multi-segment backlogs.
  EXPECT_GE(deepest_backlog[0], 10u * kDefaultMss);
  EXPECT_GE(deepest_backlog[1], 10u * kDefaultMss);
  sim.run();
  for (const StagingLane* lane : lanes) {
    EXPECT_EQ(lane->subflow.staged_bytes(), 0u);
    EXPECT_EQ(lane->delivered.size(), lane->assigned.size());
    EXPECT_EQ(lane->receiver.rcv_next(), lane->assigned.size());
    lane->expect_matches_reference();
  }
}

TEST(StagingRunsTest, MatchesPerSegmentReference) {
  for (std::uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE(seed);
    run_staging_equivalence(seed);
  }
}

// A run's count is 16 bits wide: a backlog longer than that continues in a
// new run, invisibly to every observer.
TEST(StagingRunsTest, BacklogBeyondRunLimitSplitsIntoRuns) {
  SubflowConfig sc;
  sc.staging_limit_bytes = ~std::uint64_t{0};
  PathConfig pc = wifi_profile(Rate::mbps(1000));
  pc.queue_packets = 1'000'000;  // loss-free: keep loss recovery out of the drain
  SubflowHarness h(pc, sc);
  const std::uint64_t n = 70'000;  // > UINT16_MAX staged behind the initial window
  for (std::uint64_t i = 0; i < n; ++i) h.subflow.assign_segment(i * 100, 100);
  EXPECT_EQ(h.subflow.staged_bytes(), (n - 10) * 100);
  Ranges ranges;
  h.subflow.collect_data_ranges(ranges);
  ASSERT_EQ(ranges.size(), n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(ranges[i], std::make_pair(i * 100, i * 100 + 100)) << i;
  }
  h.sim.run();
  EXPECT_EQ(h.subflow.staged_bytes(), 0u);
  EXPECT_EQ(h.sink.delivered_bytes, n * 100);
  EXPECT_EQ(h.subflow.stats().segments_sent, n);
}

}  // namespace
}  // namespace mps
