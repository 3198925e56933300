// Focused tests for subflow loss recovery: SACK scoreboard, FACK marking,
// RACK-style lost-retransmission detection, RTO fallback, and the staging
// queue's interaction with recovery.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "net/path.h"
#include "sim/simulator.h"
#include "tcp/cc_reno.h"
#include "tcp/subflow.h"

namespace mps {
namespace {

class CountingSink final : public MetaSink {
 public:
  void on_subflow_deliver(std::uint32_t, std::uint64_t data_seq, std::uint32_t payload,
                          TimePoint) override {
    delivered += payload;
    data_ack = std::max(data_ack, data_seq + payload);
  }
  std::uint64_t meta_data_ack() const override { return data_ack; }
  std::uint64_t meta_rwnd() const override { return 64 << 20; }

  std::uint64_t delivered = 0;
  std::uint64_t data_ack = 0;
};

struct LossRig {
  explicit LossRig(PathConfig pc = wifi_profile(Rate::mbps(10)))
      : path(sim, pc),
        receiver(sim, 0, 0, path, &sink),
        subflow(sim, config, 0, path, CcKind::kReno, nullptr) {
    path.down().set_deliver([this](Packet p) {
      if (drop_next > 0) {
        --drop_next;
        ++dropped;
        return;  // swallow the packet: a precise single-loss injector
      }
      if (drop_fn && drop_fn(p)) {
        ++dropped;
        return;
      }
      receiver.on_data_packet(p);
    });
    path.up().set_deliver([this](Packet p) { subflow.on_ack_packet(p); });
  }

  void send_n(int n) {
    for (int i = 0; i < n; ++i) {
      subflow.send_segment(next, 1428);
      next += 1428;
    }
  }

  Simulator sim;
  CountingSink sink;
  const SubflowConfig config;  // the subflow reads it by reference
  Path path;
  SubflowReceiver receiver;
  Subflow subflow;
  std::uint64_t next = 0;
  int drop_next = 0;
  int dropped = 0;
  // Targeted injector: return true to swallow this packet. Applied after
  // drop_next, so tests can combine both.
  std::function<bool(const Packet&)> drop_fn;
};

TEST(RecoveryTest, SingleLossRepairedByFastRetransmitNotRto) {
  LossRig rig;
  rig.send_n(2);
  rig.sim.run();  // grow cwnd a little and settle
  rig.drop_next = 1;  // exactly the next segment vanishes
  rig.send_n(10);
  rig.sim.run_until(rig.sim.now() + Duration::seconds(3));
  EXPECT_EQ(rig.sink.delivered, 12u * 1428u);
  EXPECT_EQ(rig.subflow.stats().rto_events, 0u);
  EXPECT_EQ(rig.subflow.stats().retransmits, 1u);
  EXPECT_EQ(rig.subflow.stats().fast_retransmits, 1u);
}

TEST(RecoveryTest, SackPreventsSpuriousRetransmits) {
  LossRig rig;
  rig.send_n(2);
  rig.sim.run();
  // Drop one packet out of a 30-segment burst: only that one may be resent.
  rig.drop_next = 1;
  rig.send_n(20);
  rig.sim.run_until(rig.sim.now() + Duration::seconds(3));
  // allow follow-up transmissions gated by cwnd
  while (rig.sink.delivered < 22u * 1428u &&
         rig.sim.now() < TimePoint::origin() + Duration::seconds(10)) {
    rig.subflow.poll();
    rig.sim.run_until(rig.sim.now() + Duration::millis(100));
  }
  EXPECT_EQ(rig.sink.delivered, 22u * 1428u);
  EXPECT_EQ(rig.subflow.stats().retransmits, 1u) << "SACK scoreboard must not resend "
                                                    "segments the receiver already holds";
}

TEST(RecoveryTest, LostRetransmissionRecoveredByRackTimer) {
  LossRig rig;
  rig.send_n(2);
  rig.sim.run();
  // Drop an original AND its first retransmission: the RACK reorder timer
  // (not only the much larger RTO backoff ladder) must re-detect it.
  rig.drop_next = 1;
  rig.send_n(15);
  // Let the original burst (and its loss detection) play out, then swallow
  // whatever flies next — usually the retransmission.
  rig.sim.run_until(rig.sim.now() + Duration::millis(20));
  rig.drop_next = 1;
  rig.sim.run_until(rig.sim.now() + Duration::seconds(8));
  // Whether the second drop hit the retransmission or fresh data, recovery
  // must converge without data loss and without the RTO backoff ladder
  // stalling for seconds.
  EXPECT_EQ(rig.sink.delivered, 17u * 1428u);
  EXPECT_GE(rig.subflow.stats().retransmits, 2u);
}

TEST(RecoveryTest, RtoRecoversFullTailLoss) {
  LossRig rig;
  rig.send_n(2);
  rig.sim.run();
  // Lose the last 3 segments of a burst: no SACKs above them -> RTO path.
  // (Deliver the first 7 before arming the drops; the injector drops in
  // delivery order.)
  rig.send_n(7);
  rig.sim.run_until(rig.sim.now() + Duration::seconds(1));
  rig.drop_next = 3;
  rig.send_n(3);
  rig.sim.run_until(rig.sim.now() + Duration::seconds(10));
  EXPECT_EQ(rig.sink.delivered, 12u * 1428u);
  EXPECT_GE(rig.subflow.stats().rto_events, 1u);
}

TEST(RecoveryTest, SsthreshHalvedOncePerRecoveryEpisode) {
  LossRig rig;
  rig.send_n(2);
  rig.sim.run();
  const double cwnd_before = rig.subflow.cwnd();
  // Several losses in one flight: one multiplicative decrease, not several.
  rig.drop_next = 2;
  rig.send_n(12);
  rig.sim.run_until(rig.sim.now() + Duration::seconds(5));
  EXPECT_EQ(rig.subflow.stats().fast_retransmits, 1u);
  EXPECT_GE(rig.subflow.ssthresh(), cwnd_before * 0.5 - 1.0);
}

TEST(RecoveryTest, StagedSegmentsFlowAfterRecovery) {
  // Assign far beyond CWND: the staging queue must drain through a loss
  // episode without losing or duplicating anything.
  LossRig rig;
  rig.send_n(2);
  rig.sim.run();
  rig.drop_next = 1;
  for (int i = 0; i < 60; ++i) {
    rig.subflow.assign_segment(rig.next, 1428);
    rig.next += 1428;
  }
  // Drive polls so staged segments transmit as the window frees.
  for (int i = 0; i < 200 && rig.sink.delivered < 62u * 1428u; ++i) {
    rig.subflow.poll();
    rig.sim.run_until(rig.sim.now() + Duration::millis(50));
  }
  EXPECT_EQ(rig.sink.delivered, 62u * 1428u);
  EXPECT_EQ(rig.subflow.staged_bytes(), 0u);
}

TEST(RecoveryTest, DeliveredExactlyOnceUnderHeavyLoss) {
  PathConfig pc = wifi_profile(Rate::mbps(10));
  pc.loss_rate = 0.1;  // brutal
  LossRig rig(pc);
  rig.path.down().set_rng(Rng(3));
  for (int round = 0; round < 400 && rig.sink.delivered < 300u * 1428u; ++round) {
    while (rig.subflow.can_send() && rig.next < 300u * 1428u) {
      rig.subflow.send_segment(rig.next, 1428);
      rig.next += 1428;
    }
    rig.sim.run_until(rig.sim.now() + Duration::millis(100));
  }
  EXPECT_EQ(rig.sink.delivered, 300u * 1428u);
  EXPECT_EQ(rig.sink.data_ack, 300u * 1428u);
}

TEST(RecoveryTest, KarnRtoBackoffHeldUntilNewDataAcks) {
  LossRig rig;
  rig.send_n(2);
  rig.sim.run();  // seed SRTT; rto() settles to the 200 ms floor
  // Lose a segment AND its first RTO retransmission: two timeouts on the
  // same data back the RTO off twice.
  rig.drop_next = 2;
  rig.send_n(1);
  rig.sim.run_until(rig.sim.now() + Duration::seconds(2));
  EXPECT_EQ(rig.sink.delivered, 3u * 1428u);
  EXPECT_GE(rig.subflow.stats().rto_events, 2u);
  // The repairing ack was elicited by a retransmission; Karn's algorithm
  // (RFC 6298 5.7) forbids trusting it to reset the backed-off RTO.
  EXPECT_EQ(rig.subflow.rto_backoff(), 2);
  // An ack of fresh, never-retransmitted data does clear it.
  rig.send_n(1);
  rig.sim.run_until(rig.sim.now() + Duration::seconds(1));
  EXPECT_EQ(rig.sink.delivered, 4u * 1428u);
  EXPECT_EQ(rig.subflow.rto_backoff(), 0);
}

TEST(RecoveryTest, NoRttSampleFromRetransmitElicitedAck) {
  LossRig rig;
  rig.send_n(2);
  rig.sim.run();
  const std::uint64_t samples = rig.subflow.stats().rtt_samples;
  rig.drop_next = 1;
  rig.send_n(1);
  rig.sim.run_until(rig.sim.now() + Duration::seconds(1));
  EXPECT_EQ(rig.sink.delivered, 3u * 1428u);
  // Karn: the ack echoes a retransmission's timestamp; sampling it would
  // poison SRTT with an ambiguous (possibly multi-RTO-spanning) value.
  EXPECT_EQ(rig.subflow.stats().rtt_samples, samples);
  rig.send_n(1);
  rig.sim.run_until(rig.sim.now() + Duration::seconds(1));
  EXPECT_EQ(rig.subflow.stats().rtt_samples, samples + 1);
}

TEST(RecoveryTest, SegmentDroppedTwiceStillRecovers) {
  LossRig rig;
  rig.send_n(2);
  rig.sim.run();
  // The burst's head vanishes twice: the original and the fast
  // retransmission triggered by the followers' SACKs. Recovery must converge
  // (RACK re-mark or RTO), never stall waiting for an ack that cannot come.
  const std::uint64_t victim = rig.next;
  int victim_drops = 2;
  rig.drop_fn = [&](const Packet& p) {
    if (p.data_seq == victim && victim_drops > 0) {
      --victim_drops;
      return true;
    }
    return false;
  };
  rig.send_n(12);
  rig.sim.run_until(rig.sim.now() + Duration::seconds(5));
  EXPECT_EQ(rig.sink.delivered, 14u * 1428u);
  EXPECT_EQ(victim_drops, 0);
  EXPECT_GE(rig.subflow.stats().retransmits, 2u);
}

TEST(RecoveryTest, BlackoutRetransmitsFollowRtoBackoffNotRackSpin) {
  LossRig rig;
  rig.send_n(2);
  rig.sim.run();
  // The head of a burst blacks out entirely: every copy dies. Followers
  // deliver and their SACKs trigger one fast retransmission, but with no
  // delivery evidence after it, each further retry must come from the RTO
  // backoff ladder (0.2/0.4/0.8/1.6 s...), not a RACK timer respin every
  // ~40 ms with the backoff never engaging.
  const std::uint64_t victim = rig.next;
  bool blackout = true;
  rig.drop_fn = [&](const Packet& p) { return blackout && p.data_seq == victim; };
  rig.send_n(8);
  rig.sim.run_until(rig.sim.now() + Duration::seconds(3));
  EXPECT_LE(rig.subflow.stats().retransmits, 8u);
  EXPECT_GE(rig.subflow.stats().rto_events, 2u);
  EXPECT_GE(rig.subflow.rto_backoff(), 2);
  blackout = false;
  rig.sim.run_until(rig.sim.now() + Duration::seconds(10));
  EXPECT_EQ(rig.sink.delivered, 10u * 1428u);
}

TEST(RecoveryTest, IdleResetDoesNotFireDuringRecovery) {
  LossRig rig;
  rig.send_n(2);
  rig.sim.run();
  rig.drop_next = 1;
  rig.send_n(10);
  // While segments are outstanding, poll() must not treat the flow as idle.
  rig.subflow.poll();
  EXPECT_EQ(rig.subflow.stats().idle_resets, 0u);
  rig.sim.run_until(rig.sim.now() + Duration::seconds(3));
  EXPECT_EQ(rig.sink.delivered, 12u * 1428u);
}

}  // namespace
}  // namespace mps
