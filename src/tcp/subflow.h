// One MPTCP subflow: the sender-side TCP state machine and the client-side
// receiver.
//
// The sender implements NewReno-style loss recovery (dupack fast retransmit,
// partial-ack hole filling), RFC 6298 RTO with exponential backoff, and the
// idle CWND reset the paper identifies as the root cause of fast-path
// under-utilization: a subflow idle for longer than its RTO restarts from
// the initial window (RFC 5681 / Linux tcp_cwnd_restart). Congestion
// avoidance increase is delegated to a pluggable CongestionController, so
// the same subflow runs Reno, CUBIC, or the coupled LIA/OLIA controllers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "net/packet.h"
#include "net/path.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "tcp/cc.h"
#include "tcp/cc_registry.h"
#include "tcp/rtt.h"
#include "traffic/arena.h"
#include "util/ring.h"
#include "util/time.h"

namespace mps {

class Subflow;

// Callbacks from a subflow into its owning MPTCP connection (server side).
class SubflowEnv {
 public:
  virtual ~SubflowEnv() = default;
  // New data was cumulatively acked on `sf`; the connection should try to
  // schedule more segments.
  virtual void on_subflow_ack(Subflow& sf) = 0;
  // Meta-level cumulative ack advanced (frees connection send buffer).
  virtual void on_data_ack(std::uint64_t data_ack) = 0;
  // Advertised meta receive window update.
  virtual void on_rwnd_update(std::uint64_t rwnd) = 0;
  // Group view for coupled congestion controllers (may return nullptr).
  virtual const CcGroup* cc_group() const = 0;
  // An input of the group's shared CoupledCcTerms changed on this subflow
  // (cwnd, RTT estimate, or inter-loss bytes); the group's cached aggregates
  // are stale. Default: no cache to invalidate.
  virtual void on_cc_input_change() {}
};

struct SubflowConfig {
  std::uint32_t id = 0;
  std::uint32_t conn_id = 0;
  std::uint32_t mss = kDefaultMss;
  double initial_cwnd = 10.0;  // RFC 6928
  double min_cwnd = 2.0;
  std::uint32_t dupack_threshold = 3;
  // RFC 5681 7.1 / Linux tcp_slow_start_after_idle: restart from IW after an
  // idle period >= RTO. Switchable to reproduce paper Fig. 6.
  bool idle_cwnd_reset = true;
  // Per-subflow send-queue limit: segments a scheduler may stage on this
  // subflow beyond its CWND (TSQ-style). In the MPTCP 0.89 stack the paper
  // uses, segments are committed to a subflow's send queue at scheduling
  // time and cannot be rescheduled — paper Fig. 3 shows ~130 KB staged on
  // the 0.3 Mbps WiFi subflow. This committed backlog is what makes default
  // scheduling so costly on slow paths, and what ECF's waiting avoids.
  std::uint64_t staging_limit_bytes = 64 * 1024;
  // Secondary subflows join via MP_JOIN one handshake after the connection
  // starts; primary subflows have zero delay.
  Duration join_delay = Duration::zero();
  RttConfig rtt;
};

struct SubflowStats {
  std::uint64_t segments_sent = 0;      // original transmissions
  std::uint64_t bytes_sent = 0;         // original payload bytes
  std::uint64_t reinjected_segments = 0;  // opportunistic reinjections carried
  std::uint64_t retransmits = 0;        // subflow-level loss retransmissions
  std::uint64_t fast_retransmits = 0;
  std::uint64_t rto_events = 0;
  std::uint64_t iw_resets = 0;  // CWND pulled back to <= IW (idle or RTO)
  std::uint64_t idle_resets = 0;
  std::uint64_t penalizations = 0;
  std::uint64_t rtt_samples = 0;
};

// A segment's meta-level identity, used for opportunistic reinjection.
struct SegmentRef {
  std::uint64_t data_seq = 0;
  std::uint32_t payload = 0;
};

// Sender-side scoreboard entry for one transmitted segment, keyed by subflow
// sequence number. Exposed read-only for the invariant checker
// (check/invariants.h); the state machine in subflow.cpp is the only writer.
// Segments are assigned consecutive sequence numbers and retired only by the
// cumulative ack, so the scoreboard is the dense range [snd_una, next_seq)
// and lives in a SeqRing rather than a node-based map.
// Members are ordered 8/8/4/1/1/1 so the struct packs into 24 bytes: the
// scoreboard ring is the largest per-flow heap line at 100k flows, and the
// u32/TimePoint padding hole of the naive order costs 8 bytes per segment.
struct SentSeg {
  std::uint64_t data_seq = 0;
  TimePoint sent_at;
  std::uint32_t payload = 0;
  bool retransmitted = false;
  bool sacked = false;  // receiver holds it out of order
  bool lost = false;    // FACK-deemed lost, awaiting retransmission
};
static_assert(sizeof(SentSeg) == 24);

// Staging-queue entry: a run of `count` segments committed to the subflow
// but not yet sent, consecutive in data sequence, each `payload` bytes and
// sharing one reinjection flag. A saturated 64 KB staging limit is one run
// instead of ~45 per-segment entries. Runs cap at UINT16_MAX segments so the
// entry stays 16 bytes; a longer backlog simply starts a new run.
struct StagedSeg {
  std::uint64_t data_seq = 0;  // first byte of the run's first segment
  std::uint32_t payload = 0;   // bytes per segment
  std::uint16_t count = 0;
  bool reinjection = false;
};
static_assert(sizeof(StagedSeg) == 16);
// Each subflow owns two timers (RTO and RACK).
static_assert(sizeof(Timer) <= 24);

// Churned subflows recycle fixed-size arena slots instead of hitting the
// global heap (traffic/arena.h).
class Subflow final : public ArenaAllocated<Subflow> {
 public:
  // The congestion controller `cc` is built inline in the subflow.
  Subflow(Simulator& sim, SubflowConfig config, Path& path, CcKind cc, SubflowEnv* env);
  // Snapshot support (exp/snapshot.h): the twin of `src` in a forked world,
  // over `path` (the fork's counterpart of src's) and reporting to `env`.
  // Copies the whole sender state machine — scoreboard, staging queue,
  // CWND/recovery/RTT/CC state, stats — and adopts src's pending RTO/RACK
  // timers by EventId; `sim`'s queue must already be structure-cloned from
  // src's. Publishes nothing to the recorder.
  Subflow(const Subflow& src, Simulator& sim, Path& path, SubflowEnv* env);
  Subflow(const Subflow&) = delete;
  Subflow& operator=(const Subflow&) = delete;

  // --- wiring -------------------------------------------------------------
  // Handler for ACK packets demuxed from the path's uplink.
  void on_ack_packet(const Packet& ack);

  // --- scheduler-facing state ---------------------------------------------
  std::uint32_t id() const { return config_.id; }
  Path& path() { return path_; }
  const Path& path() const { return path_; }
  bool established() const { return sim_.now() >= established_at_; }
  // --- teardown state (mptcp/path_manager.h) -------------------------------
  // A draining subflow keeps its ack clock and loss-recovery machinery but
  // takes no new work: can_send()/can_accept() go false, so schedulers, the
  // redundant duplicate loop, and opportunistic reinjection all skip it. The
  // owning connection finalizes (destroys) it once drained().
  bool draining() const { return draining_; }
  void begin_drain() { draining_ = true; }
  // Every committed byte delivered: nothing staged, nothing in flight.
  bool drained() const { return staged_.empty() && inflight_.empty(); }
  // Eligible for scheduler picks: established and not being torn down.
  bool schedulable() const { return established() && !draining_; }
  // Applies lazy state transitions (idle CWND reset). The connection calls
  // this on every subflow before a scheduling round.
  void poll();
  // True when established with at least one free segment slot in CWND.
  bool can_send() const;
  // True when a scheduler may stage another segment on this subflow (the
  // mptcp.org availability notion: room in the subflow send queue).
  bool can_accept() const;
  std::uint64_t staged_bytes() const { return staged_bytes_; }
  double cwnd() const { return cwnd_; }
  double ssthresh() const { return ssthresh_; }
  bool in_slow_start() const { return cwnd_ < ssthresh_; }
  std::uint32_t inflight_segments() const { return static_cast<std::uint32_t>(inflight_.size()); }
  // Free CWND space in whole segments (>= 0).
  std::int64_t available_cwnd() const;
  std::uint32_t mss() const { return config_.mss; }

  const RttEstimator& rtt() const { return rtt_; }
  Duration srtt() const { return rtt_.srtt(); }
  // ECF's sigma: RTT variability. The kernel derives it from the smoothed
  // mean deviation (mdev/rttvar); the windowed sample stddev alone reacts
  // too slowly to queue sawtooth, so take the larger of the two.
  Duration rtt_stddev() const { return std::max(rtt_.stddev(), rtt_.rttvar()); }
  Duration rto() const { return rtt_.rto(); }
  // Before any sample, fall back to the path's base RTT so schedulers have a
  // usable ordering from the first decision (mirrors the kernel seeding the
  // estimate from the SYN/ACK exchange).
  Duration rtt_estimate() const {
    return rtt_.has_sample() ? rtt_.srtt() : path_.rtt_base();
  }

  // --- transmission -------------------------------------------------------
  // Commits a run of up to `max_segments` consecutive segments of `payload`
  // bytes starting at `data_seq` (the scheduler's decision is final, as in
  // MPTCP 0.89). Segments go out immediately while CWND allows and nothing
  // is staged ahead of them; the rest extend the staging queue in O(1).
  // The first segment is always committed (the caller checked
  // can_accept()); each later one only while can_accept() would still hold,
  // so the run is exactly what committing one segment per can_accept()
  // check would produce. Returns the number committed (>= 1).
  // `reinjection` marks duplicate copies (redundant scheduling /
  // opportunistic retransmission accounting).
  std::uint64_t assign_segments(std::uint64_t data_seq, std::uint32_t payload,
                                std::uint64_t max_segments, bool reinjection = false);
  // The one-segment run.
  void assign_segment(std::uint64_t data_seq, std::uint32_t payload,
                      bool reinjection = false) {
    assign_segments(data_seq, payload, 1, reinjection);
  }
  // Sends one segment carrying [data_seq, data_seq + payload) immediately.
  // `reinjection` marks opportunistic retransmissions of data owned by
  // another subflow. Precondition: available_cwnd() >= 1.
  void send_segment(std::uint64_t data_seq, std::uint32_t payload, bool reinjection = false);

  // --- opportunistic retransmission / penalization support -----------------
  bool has_unacked() const { return !inflight_.empty(); }
  SegmentRef oldest_unacked() const;
  // Halves CWND (at most once per SRTT), per Raiciu et al.'s penalization.
  void penalize();

  // --- diagnostics ----------------------------------------------------------
  const SubflowStats& stats() const { return stats_; }
  TimePoint established_at() const { return established_at_; }
  double inter_loss_bytes() const { return inter_loss_bytes_; }

  // --- invariant-checker inspection (check/invariants.h) --------------------
  // Read-only views of the sender state machine; no test or checker may
  // mutate through these.
  const SeqRing<SentSeg>& inflight() const { return inflight_; }
  std::uint64_t snd_una() const { return snd_una_; }
  std::uint64_t next_seq() const { return next_seq_; }
  std::uint64_t sack_high() const { return sack_high_; }
  std::size_t lost_not_rtx() const { return lost_not_rtx_; }
  std::size_t sacked_count() const { return sacked_count_; }
  int rto_backoff() const { return rto_backoff_; }
  bool rto_pending() const { return rto_timer_.pending(); }
  bool rack_pending() const { return rack_timer_.pending(); }
  double min_cwnd() const { return config_.min_cwnd; }
  // Appends the meta-level [data_seq, data_seq + payload) range of every
  // segment this subflow still holds a copy of (in flight or staged).
  void collect_data_ranges(std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) const;

 private:
  // Points obs_ at this subflow's instruments when the simulator records,
  // else at the shared detached block.
  void attach_instruments();
  CongestionController::AckContext make_ctx() const;
  void set_cwnd(double cwnd);
  void maybe_idle_reset();
  void process_new_ack(const Packet& ack);
  void process_dupack(const Packet& ack);
  // Applies the ACK's SACK blocks to the scoreboard; returns true when the
  // ack newly SACKed at least one segment (delivery evidence for RACK).
  bool apply_sack(const Packet& ack);
  // Marks segments lost by the FACK rule (>= 3 segments SACKed above them).
  void update_loss_marks();
  void enter_fast_recovery();
  // Segments presumed in the network: everything in flight that is neither
  // SACKed nor deemed lost, plus retransmissions of lost segments.
  std::size_t pipe() const { return inflight_.size() - lost_not_rtx_ - sacked_count_; }
  // Retransmits deemed-lost segments while pipe() < cwnd.
  void pump_retransmissions();
  void retransmit(std::uint64_t seq, SentSeg& seg);
  void arm_rto();
  void on_rto_fire();
  // Arms the RACK reorder timer for the earliest outstanding retransmission
  // (lost retransmissions have no ack clock to re-detect them otherwise).
  Duration rack_timeout() const;
  void arm_rack_timer();
  // Moves staged segments into the network while CWND space allows.
  void transmit_staged();
  // Appends `count` segments to the staging queue: extends the tail run when
  // they continue it, else (and past UINT16_MAX) starts new runs.
  void stage_run(std::uint64_t data_seq, std::uint32_t payload, std::uint64_t count,
                 bool reinjection);
  CongestionController& cc() {
    return std::visit([](auto& c) -> CongestionController& { return c; }, cc_);
  }
  const CongestionController& cc() const {
    return std::visit([](const auto& c) -> const CongestionController& { return c; }, cc_);
  }

  Simulator& sim_;
  SubflowConfig config_;
  Path& path_;
  CcState cc_;  // inline: one fewer heap block per subflow under churn
  SubflowEnv* env_;

  RttEstimator rtt_;
  double cwnd_;
  double ssthresh_ = 1e9;
  std::uint64_t next_seq_ = 0;   // next subflow sequence number to assign
  std::uint64_t snd_una_ = 0;    // lowest unacked subflow seq
  // Dense scoreboard over [snd_una_, next_seq_): inflight_.lo() == snd_una_
  // and inflight_.hi() == next_seq_ at every quiescent point.
  SeqRing<SentSeg> inflight_;

  // Segments committed by the scheduler, awaiting CWND space, as runs.
  RingDeque<StagedSeg> staged_;
  std::uint64_t staged_bytes_ = 0;

  std::uint32_t dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_point_ = 0;  // recovery ends when ack_seq reaches it
  std::uint64_t sack_high_ = 0;      // highest sack_high seen from the peer
  std::size_t lost_not_rtx_ = 0;     // deemed lost, not yet retransmitted
  std::size_t sacked_count_ = 0;     // in inflight_, received out of order

  Timer rto_timer_;
  Timer rack_timer_;
  int rto_backoff_ = 0;
  // Send timestamp of the newest transmission whose delivery the peer has
  // confirmed (cumulative or SACK). RACK-style lost-retransmission detection
  // requires this to pass the retransmission's own send time — evidence the
  // path delivered something sent after it (RFC 8985); with no such evidence
  // (total blackout) recovery belongs to the RTO ladder. origin() = none yet.
  TimePoint rack_delivered_ts_ = TimePoint::origin();

  TimePoint established_at_;
  bool draining_ = false;
  bool cwnd_full_at_send_ = false;  // Linux tcp_is_cwnd_limited analogue
  TimePoint last_send_time_ = TimePoint::never();
  TimePoint last_penalty_ = TimePoint::never();
  double inter_loss_bytes_ = 0.0;  // OLIA's l_r

  SubflowStats stats_;
  std::uint64_t transmit_counter_ = 0;

  // Flight-recorder instruments; no-op handles when the owning Simulator has
  // no recorder attached (see obs/metrics.h naming convention in DESIGN.md).
  // Behind a pointer: the handle block is 80 bytes, and in unrecorded runs
  // (every scale cell, every golden) all subflows share one static detached
  // block whose handles no-op, so each subflow carries 16 bytes instead.
  struct Instruments {
    Counter segments_sent, retransmits, fast_recoveries, rtos, idle_resets;
    Counter penalizations, reinjections_carried;
    Gauge cwnd, srtt_ms;
    Histogram rtt_sample_ms;
  };
  static Instruments& detached_instruments();
  std::unique_ptr<Instruments> obs_owned_;  // populated only when recording
  Instruments* obs_ = nullptr;              // obs_owned_ or the shared detached block
};

// Client-side receiver for one subflow: enforces subflow-level in-order
// delivery toward the meta receiver (a loss on a subflow blocks later
// segments of that subflow, as in real TCP) and generates cumulative ACKs
// carrying the meta-level data ack and advertised window.
class MetaSink {
 public:
  virtual ~MetaSink() = default;
  // A segment became deliverable in subflow order. `wire_arrival` is when
  // the packet physically arrived at the client.
  virtual void on_subflow_deliver(std::uint32_t subflow_id, std::uint64_t data_seq,
                                  std::uint32_t payload, TimePoint wire_arrival) = 0;
  // Every data packet arrival, before any ordering (trace granularity).
  virtual void on_wire_arrival(std::uint32_t /*subflow_id*/, std::uint64_t /*data_seq*/,
                               std::uint32_t /*payload*/, TimePoint /*arrival*/) {}
  // Current meta-level cumulative ack / advertised window for outgoing ACKs.
  virtual std::uint64_t meta_data_ack() const = 0;
  virtual std::uint64_t meta_rwnd() const = 0;
};

class SubflowReceiver final : public ArenaAllocated<SubflowReceiver> {
 public:
  SubflowReceiver(Simulator& sim, std::uint32_t conn_id, std::uint32_t subflow_id,
                  Path& path, MetaSink* sink);
  // Snapshot support: the twin of `src` over `path`, delivering to `sink`
  // (no pending events of its own — ACK emission is synchronous).
  SubflowReceiver(const SubflowReceiver& src, Simulator& sim, Path& path, MetaSink* sink);
  SubflowReceiver(const SubflowReceiver&) = delete;
  SubflowReceiver& operator=(const SubflowReceiver&) = delete;

  // Handler for data packets demuxed from the path's downlink.
  void on_data_packet(const Packet& pkt);

  std::uint64_t rcv_next() const { return rcv_next_; }
  std::uint64_t rcv_high() const { return rcv_high_; }
  std::size_t ooo_held() const { return ooo_.size(); }
  // Lowest held out-of-order subflow sequence; UINT64_MAX when none held
  // (invariant: always > rcv_next()).
  std::uint64_t ooo_min_seq() const {
    return ooo_.empty() ? UINT64_MAX : ooo_.min_key();
  }

 private:
  void send_ack(const Packet& trigger);

  Simulator& sim_;
  std::uint32_t conn_id_;
  std::uint32_t subflow_id_;
  Path& path_;
  MetaSink* sink_;

  std::uint64_t rcv_next_ = 0;
  std::uint64_t rcv_high_ = 0;  // highest received + 1 (SACK summary)
  struct Held {  // 8/8/4 order packs to 24 bytes (no u32/TimePoint hole)
    std::uint64_t data_seq;
    TimePoint arrival;
    std::uint32_t payload;
  };
  // Sparse holdings inside (rcv_next_, rcv_high_); the window span is
  // bounded by the sender's flight, so a presence ring beats a map.
  SeqWindow<Held> ooo_;
};

}  // namespace mps
