// The MPTCP connection: meta-level sender and receiver.
//
// Server side (sender): a connection-level send buffer holds application
// bytes; the scheduler maps them to subflows as whole segments; data
// sequence numbers stitch the subflows back together. The meta send window
// is bounded by the receiver's advertised window. When the window stalls on
// a segment owned by a slow subflow, opportunistic retransmission reinjects
// it on a faster subflow and penalization halves the blocker's CWND
// (Raiciu et al., NSDI'12), both enabled by default as in the paper.
//
// Client side (receiver): per-subflow receivers enforce subflow-level order;
// the meta receiver then reorders across subflows by data sequence number,
// measuring the out-of-order delay every packet experiences (paper's
// Figs. 13/14/21/23).
//
// Both endpoints live in one object because the simulation runs them in one
// process; the public API is split into sender-side and receiver-side
// sections below.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/mux.h"
#include "net/path.h"
#include "mptcp/scheduler.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "tcp/cc.h"
#include "tcp/subflow.h"
#include "traffic/arena.h"
#include "util/ring.h"
#include "util/stats.h"

namespace mps {

struct ConnectionConfig {
  std::uint32_t conn_id = 1;
  std::uint32_t mss = kDefaultMss;
  // Connection-level send buffer (queued + in-flight-unacked bytes). The
  // paper's Apache server pins SO_SNDBUF (~256 KB; cf. the ~200 KB ceiling
  // in paper Fig. 3), which disables Linux autotuning.
  std::uint64_t sndbuf_bytes = 256 << 10;
  // Per-subflow send-queue limit (see SubflowConfig::staging_limit_bytes).
  std::uint64_t subflow_staging_bytes = 64 << 10;
  // Meta receive buffer backing the advertised window (tcp_rmem max).
  std::uint64_t rcvbuf_bytes = 6 << 20;
  CcKind cc = CcKind::kLia;
  bool opportunistic_retransmission = true;
  bool penalization = true;
  bool idle_cwnd_reset = true;
  double initial_cwnd = 10.0;
  // Linux-style dynamic right-sizing of the advertised receive window: start
  // small, double each time a full window's worth of in-order data is
  // consumed, up to rcvbuf_bytes. Makes the meta send window bind early in a
  // connection's life, as in the real stack.
  bool rcv_autotune = true;
  std::uint64_t rcv_initial_window = 256 * 1024;
  // Secondary subflows join one handshake RTT after the connection opens.
  bool delayed_secondary_join = true;
};

struct MetaStats {
  std::uint64_t delivered_bytes = 0;       // in-order bytes handed to the app
  std::uint64_t duplicate_segments = 0;    // dropped at meta level
  std::uint64_t reinjections = 0;          // opportunistic retransmissions
  std::uint64_t remapped_segments = 0;     // re-scheduled after abandon teardown
  std::uint64_t window_stalls = 0;         // scheduling blocked by meta rwnd
  std::uint64_t segments_scheduled = 0;
};

// Snapshot support (exp/snapshot.h): the forked world a connection's twin is
// wired into — its simulator, whose queue already holds the source's pending
// events with their callbacks unbound, its muxes, and the fork's counterpart
// of every source path (the two worlds' path lists pair up index for index).
struct TwinWorld {
  Simulator& sim;
  Mux& down_mux;
  Mux& up_mux;
  std::vector<const Path*> src_paths;
  std::vector<Path*> paths;

  // The fork's counterpart of source path `src`; throws std::logic_error for
  // a path outside the source world.
  Path& path_for(const Path& src) const;
};

// Churned connections recycle fixed-size arena slots instead of hitting the
// global heap (traffic/arena.h).
class Connection final : public SubflowEnv,
                         public CcGroup,
                         public MetaSink,
                         public ArenaAllocated<Connection> {
 public:
  // `paths` may contain duplicates (several subflows per interface, paper
  // Section 5.2.5); index 0 is the primary subflow. `down_mux`/`up_mux`
  // demultiplex the shared links; the connection registers itself for
  // config.conn_id and unregisters on destruction.
  Connection(Simulator& sim, ConnectionConfig config, const std::vector<Path*>& paths,
             std::unique_ptr<Scheduler> scheduler, Mux& down_mux, Mux& up_mux);
  // Snapshot support: the twin of `src` in `world`, under src's conn_id.
  // Copies all meta-level sender/receiver state, builds every slot's subflow
  // and receiver as twins of src's (finalized slots stay empty), restores
  // `scheduler` — a fresh instance of src's scheduler type — from src's, and
  // adopts src's pending deferred posts by EventId. The application hooks
  // (on_sendable, on_deliver, on_wire_arrival_hook) start empty: they capture
  // src's owners, so the fork's owners install their own.
  Connection(const Connection& src, const TwinWorld& world, std::unique_ptr<Scheduler> scheduler);
  ~Connection() override;

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // --- sender-side application API -----------------------------------------
  // Enqueues `len` bytes for transfer; returns the bytes accepted (limited
  // by free send-buffer space). The remainder must be re-offered from
  // on_sendable.
  std::uint64_t send(std::uint64_t len);
  std::uint64_t sndbuf_free() const;
  std::uint64_t sndbuf_used() const;
  // Bytes accepted but not yet handed to any subflow — ECF's k.
  std::uint64_t unscheduled_bytes() const { return send_queue_bytes_; }
  // Fires (deferred) when send-buffer space frees up.
  std::function<void()> on_sendable;

  // --- receiver-side application API ---------------------------------------
  // Per-packet hooks: move-only BasicCallbacks with 24 inline bytes, as
  // large as the std::function they replace, so invoking or installing one
  // never allocates for a capture of up to three pointers.
  // In-order meta-level delivery of `bytes` at `when`.
  BasicCallback<void(std::uint64_t bytes, TimePoint when), 24> on_deliver;
  // Raw per-packet wire arrivals (before reordering), for trace analyses.
  BasicCallback<void(std::uint32_t subflow_id, std::uint64_t data_seq, std::uint32_t payload,
                     TimePoint when),
                24>
      on_wire_arrival_hook;

  // --- scheduler-facing state ----------------------------------------------
  Simulator& sim() { return sim_; }
  const ConnectionConfig& config() const { return config_; }
  std::vector<Subflow*>& subflows() { return subflow_ptrs_; }
  std::uint32_t mss() const { return config_.mss; }
  // Meta-level bytes in flight (scheduled, not yet data-acked).
  std::uint64_t meta_inflight() const { return next_data_seq_ - data_una_; }
  std::uint64_t send_window() const { return rwnd_; }

  // --- dynamic path management (mptcp/path_manager.h) -----------------------
  // Subflows live in id-indexed slots: slot index == subflow id, ids are
  // never reused, and teardown leaves a null slot behind. subflows() is the
  // compacted live list (including draining members) that schedulers
  // iterate; the slot views below are for the invariant checker, snapshot
  // restore, and per-path reporting.
  //
  // Opens a new subflow on `path`, established after `join_delay` (the
  // MP_JOIN handshake analogue). Event-free, like construction; the caller
  // (normally the PathManager tick) is responsible for kicking the
  // connection once the subflow establishes. Returns the new subflow's id.
  std::uint32_t add_subflow(Path& path, Duration join_delay);
  enum class TeardownMode {
    kDrain,    // stop new work; deliver everything committed, then finalize
    kAbandon,  // tear down now; unacked data re-queued for other subflows
  };
  // Begins RST-less teardown of subflow `id`. kDrain marks the subflow
  // draining (finalized later via finalize_drained); kAbandon destroys it
  // immediately after moving every data range it still held a copy of onto
  // the remap queue, which try_send re-schedules onto surviving subflows —
  // this is what keeps the checker's conservation invariant intact.
  void remove_subflow(std::uint32_t id, TeardownMode mode);
  // Destroys draining subflows that have delivered everything they held.
  // Never called from packet-processing stacks (the PathManager tick drives
  // it), so a subflow is never destroyed under its own ack. Returns the
  // number of slots finalized.
  std::size_t finalize_drained();
  // Runs a scheduling round; the PathManager tick calls this so newly
  // established subflows start carrying data even when no ack clock is
  // running (e.g. a break-before-make window with zero live subflows).
  void kick() { try_send(); }

  std::size_t slot_count() const { return slots_.size(); }
  const Subflow* subflow_at(std::size_t slot) const { return slots_[slot].sender.get(); }
  const SubflowReceiver* receiver_at(std::size_t slot) const {
    return slots_[slot].receiver.get();
  }
  // The path slot `slot`'s subflow runs (ran) over; survives finalization.
  const Path* slot_path(std::size_t slot) const { return slots_[slot].path; }
  // Final stats of a finalized slot (zeros while the subflow is live).
  const SubflowStats& retired_stats(std::size_t slot) const;
  // Payload bytes originally sent over `path`, live and retired slots
  // combined (per-interface reporting that survives subflow churn).
  std::uint64_t bytes_sent_on(const Path& path) const;
  // Bytes awaiting re-scheduling after an abandon teardown.
  std::uint64_t remap_bytes() const { return remap_bytes_; }

  // --- diagnostics -----------------------------------------------------------
  const MetaStats& meta_stats() const { return meta_stats_; }
  // Out-of-order delay samples (seconds), one per delivered packet.
  const Samples& ooo_delay() const { return ooo_delay_; }
  std::uint64_t delivered_bytes() const { return meta_stats_.delivered_bytes; }
  Scheduler& scheduler() { return *scheduler_; }

  // Replaces the scheduler mid-connection (what-if divergence after a
  // snapshot fork; exp/snapshot.h). The new scheduler starts from its
  // initial state and takes effect at the next scheduling round.
  void set_scheduler(std::unique_ptr<Scheduler> scheduler);

  // --- invariant-checker inspection (check/invariants.h) ---------------------
  std::uint64_t next_data_seq() const { return next_data_seq_; }
  std::uint64_t data_una() const { return data_una_; }
  std::uint64_t rcv_data_next() const { return rcv_data_next_; }
  std::uint64_t meta_ooo_bytes() const { return meta_ooo_bytes_; }
  // Appends the [data_seq, data_seq + payload) range of every segment held
  // in the meta reorder buffer.
  void collect_ooo_ranges(std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) const;
  // Appends the range of every remap-queue entry (sender-side copies of data
  // abandoned with its subflow, not yet re-scheduled).
  void collect_remap_ranges(std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) const;

  // --- SubflowEnv ------------------------------------------------------------
  void on_subflow_ack(Subflow& sf) override;
  void on_data_ack(std::uint64_t data_ack) override;
  void on_rwnd_update(std::uint64_t rwnd) override;
  const CcGroup* cc_group() const override { return this; }
  void on_cc_input_change() override { cc_terms_valid_ = false; }

  // --- CcGroup ---------------------------------------------------------------
  void cc_sibling_info(std::vector<CcSiblingInfo>& out) const override;
  // Cached coupled-controller aggregates, recomputed lazily after any
  // subflow cwnd/RTT/inter-loss change (on_cc_input_change), membership
  // change, restore, or the establishment horizon passing: established() is
  // clock-derived, so a join flips a sibling's eligibility without any event
  // on this connection — the cache records the earliest future
  // established_at and expires itself at that instant.
  const CoupledCcTerms& coupled_terms() const override;

  // --- MetaSink ---------------------------------------------------------------
  void on_subflow_deliver(std::uint32_t subflow_id, std::uint64_t data_seq,
                          std::uint32_t payload, TimePoint wire_arrival) override;
  void on_wire_arrival(std::uint32_t subflow_id, std::uint64_t data_seq,
                       std::uint32_t payload, TimePoint arrival) override;
  std::uint64_t meta_data_ack() const override { return rcv_data_next_; }
  std::uint64_t meta_rwnd() const override;

 private:
  void try_send();
  // Segments the next commit to a picked subflow may carry: the whole run up
  // to the send queue's last full segment and the meta window's edge when
  // the scheduler's pick is stable (and no decision log listens), else 1.
  std::uint64_t run_limit(std::uint32_t payload) const;
  void try_opportunistic_retransmit();
  // Re-schedules remap-queue entries (data abandoned with a torn-down
  // subflow) onto scheduler-picked survivors. Runs before the regular
  // scheduling loop and outside the meta-window check: remapped bytes are
  // already inside meta_inflight(), so gating them on rwnd would deadlock.
  void service_remap_queue();
  // Construction steps both constructors share: wire the scheduler to the
  // clock and recorder and register the connection's instruments, then (once
  // the slots exist) register with the muxes.
  void bind_and_instrument();
  void add_routes();
  // Appends slot `slots_.size()` (sender + receiver over `path`) and lists
  // its subflow as live; returns the new id.
  std::uint32_t open_slot(Path& path, Duration join_delay);
  void rebuild_subflow_ptrs();
  // Destroys slot `id` (sender + receiver), recording its final stats.
  void finalize_subflow(std::uint32_t id);
  void flush_deliveries();
  void notify_sendable();
  // Deferred-post bodies, named so a twin can rebind the cloned posts to
  // byte-identical behavior.
  void fire_sendable();
  void fire_deliveries();

  Simulator& sim_;
  ConnectionConfig config_;
  // The constants every subflow of this connection reads (by reference).
  SubflowConfig subflow_config_;
  std::unique_ptr<Scheduler> scheduler_;
  Mux& down_mux_;
  Mux& up_mux_;

  // One entry per subflow id, reserved for the initial paths at
  // construction: sender and receiver (both null after teardown) and the
  // path.
  struct Slot {
    std::unique_ptr<Subflow> sender;
    std::unique_ptr<SubflowReceiver> receiver;
    Path* path = nullptr;
  };
  std::vector<Slot> slots_;
  std::vector<Subflow*> subflow_ptrs_;  // compacted live list
  // Final stats of finalized slots, in finalization order. A side table:
  // only path-manager teardown finalizes slots, so most connections never
  // allocate it.
  struct RetiredSlot {
    std::uint32_t slot;
    SubflowStats stats;
  };
  std::vector<RetiredSlot> retired_;
  // Data ranges abandoned with a torn-down subflow, awaiting re-scheduling.
  RingDeque<SegmentRef> remap_queue_;
  std::uint64_t remap_bytes_ = 0;

  // Sender state.
  std::uint64_t send_queue_bytes_ = 0;  // accepted, not yet scheduled
  std::uint64_t next_data_seq_ = 0;     // next byte to hand to a subflow
  std::uint64_t data_una_ = 0;          // lowest un-data-acked byte
  std::uint64_t rwnd_;                  // peer-advertised meta window
  std::uint64_t last_reinjected_seq_ = UINT64_MAX;
  EventId sendable_post_id_ = kInvalidEventId;  // cancelled in the dtor

  // Receiver state.
  std::uint64_t rcv_data_next_ = 0;
  std::uint64_t drs_window_ = 0;      // current auto-tuned window
  std::uint64_t drs_mark_bytes_ = 0;  // delivered count at last resize
  struct HeldSeg {
    std::uint32_t payload;
    TimePoint arrival;
  };
  // Sorted flat storage: drained from the bottom as the cumulative point
  // advances, inserted mostly near the top as new data arrives out of order.
  FlatSeqMap<HeldSeg> meta_ooo_;
  std::uint64_t meta_ooo_bytes_ = 0;
  std::uint64_t pending_deliver_bytes_ = 0;
  TimePoint pending_deliver_when_;
  EventId deliver_post_id_ = kInvalidEventId;  // cancelled in the dtor

  MetaStats meta_stats_;
  Samples ooo_delay_;

  // Horizon of the coupled-CC aggregate cache (see coupled_terms()), which
  // lives in CcGroup::terms_.
  mutable TimePoint cc_terms_horizon_ = TimePoint::never();

  // Flight-recorder instruments (no-ops unless a recorder was attached to
  // the Simulator before construction). One pointer, to an owned
  // per-connection block when recording, else to one shared static detached
  // block — same scheme as Subflow::Instruments, for the same per-flow
  // footprint reason.
  struct Instruments {
    Counter ooo_bytes_total, reinjections, window_stalls, sndbuf_blocked_ns;
    Gauge meta_ooo_bytes, reorder_segments;
  };
  static Instruments& detached_instruments();
  struct ReleaseInstruments {
    void operator()(Instruments* p) const {
      if (p != &detached_instruments()) delete p;
    }
  };
  std::unique_ptr<Instruments, ReleaseInstruments> obs_;
  // Start of the current stretch with the send buffer full and the
  // application wanting to send more (conn.sndbuf_blocked_ns) — the paper's
  // "server is sndbuf-limited".
  TimePoint sndbuf_blocked_since_;

  // The flags share one word.
  bool sendable_post_pending_ = false;
  bool in_try_send_ = false;
  bool deliver_post_pending_ = false;
  mutable bool cc_terms_valid_ = false;
  bool sndbuf_blocked_ = false;  // inside a sndbuf_blocked_since_ stretch
};

}  // namespace mps
