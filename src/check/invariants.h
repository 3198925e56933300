// InvariantChecker: protocol-level assertions for the MPTCP stack, evaluated
// continuously while a simulation runs.
//
// The checker subscribes to the flight-recorder event stream (obs/events.h):
// it installs itself as the recorder's event sink, forwards every event to
// the previously installed sink (tee), and re-validates the watched
// connections' state. Cheap structural checks run on every event; checks
// that are only meaningful between events (e.g. RTO-timer liveness, which is
// legitimately false halfway through ack processing) run "settled", via a
// coalesced Simulator::post() that executes after the current event's call
// stack unwinds. Harnesses that run with tracing compiled out can drive the
// same checks manually with check_now().
//
// Invariants (see DESIGN.md §9 for the rationale of each):
//   conservation    every meta byte in [rcv_data_next, next_data_seq) is
//                   covered by a sender copy (subflow inflight/staged) or the
//                   meta reorder buffer — bytes cannot vanish
//   exactly-once    delivered_bytes == rcv_data_next (each in-order byte is
//                   delivered to the application exactly once)
//   monotonicity    rcv_data_next / data_una / next_data_seq and per-subflow
//                   snd_una / sack_high never move backward;
//                   data_una <= rcv_data_next <= next_data_seq
//   meta-ooo        meta_ooo_bytes equals the sum of held payloads; the
//                   first held segment lies strictly above rcv_data_next
//   scoreboard      lost/sacked counters match a recount of the inflight
//                   map; lost and sacked are mutually exclusive; pipe() >= 0
//   cwnd-sanity     cwnd and ssthresh are finite, >= min_cwnd, and bounded
//   rto-liveness    (settled) the RTO timer is pending iff the subflow has
//                   data in flight; the RACK timer implies data in flight
//   rcv-order       per-subflow receiver holds out-of-order segments only
//                   strictly above its cumulative point
//   coupled-terms   the connection's cached cross-subflow CC aggregates
//                   (CoupledCcTerms) match a from-scratch recomputation —
//                   a mismatch means a cwnd/RTT/inter-loss/membership change
//                   was not invalidated and a coupled controller (LIA, OLIA,
//                   BALIA) read stale coupling state
//
// A violation is recorded (never thrown): the harness inspects ok() /
// violations() and fails the run, printing report().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mptcp/connection.h"
#include "obs/events.h"
#include "sim/simulator.h"

namespace mps {

class InvariantChecker final : public EventSink {
 public:
  struct Violation {
    TimePoint t;
    std::string invariant;  // short name from the table above
    std::string detail;     // human-readable state dump
  };

  // Installs the checker as `sim`'s recorder event sink (tee-ing to any sink
  // already installed); the checker must be destroyed before the recorder
  // (it restores the previous sink on destruction). Without a recorder on
  // the simulator there is no event stream to check from: only check_now()
  // checks then.
  explicit InvariantChecker(Simulator& sim);
  ~InvariantChecker() override;

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  // Adds a connection to the watched set. Snapshot state for monotonicity
  // checks starts at the connection's current counters.
  void watch(Connection& conn);

  // Drops a connection from the watched set. Churn harnesses must call this
  // before destroying a watched connection — ConnWatch holds a raw pointer.
  void unwatch(Connection& conn);

  // Runs every check (including the settled-only ones) immediately.
  // `context` labels any violations found. Safe to call between run slices.
  void check_now(const char* context);

  bool ok() const { return violations_.empty(); }
  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t checks_run() const { return checks_run_; }
  // One line per violation, truncated after `max_lines`.
  std::string report(std::size_t max_lines = 10) const;

  // EventSink: forwards to the previous sink, then validates.
  void on_event(TimePoint t, EventType type, std::int64_t conn, std::int64_t subflow,
                const EventField* fields, std::size_t n_fields) override;

 private:
  struct SubflowWatch {
    std::uint64_t last_snd_una = 0;
    std::uint64_t last_sack_high = 0;
  };
  struct ConnWatch {
    Connection* conn = nullptr;
    std::uint64_t last_rcv_data_next = 0;
    std::uint64_t last_data_una = 0;
    std::uint64_t last_next_data_seq = 0;
    std::vector<SubflowWatch> subflows;
  };

  void violation(const char* invariant, std::string detail);
  void check_all(const char* context, bool settled);
  void check_connection(ConnWatch& w, const char* context, bool settled);
  void check_conservation(const ConnWatch& w, const char* context);
  void schedule_settled_check();

  Simulator& sim_;
  FlightRecorder* recorder_ = nullptr;
  EventSink* next_ = nullptr;
  bool settled_post_pending_ = false;

  std::vector<ConnWatch> watched_;
  // Scratch buffers reused across checks — these run on every traced event,
  // so per-call vectors would dominate the ACK-path allocation profile.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> held_scratch_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges_scratch_;
  CoupledCcTerms terms_scratch_;  // fresh recomputation for coupled-terms
  std::vector<Violation> violations_;
  std::uint64_t checks_run_ = 0;
  static constexpr std::size_t kMaxViolations = 100;
};

}  // namespace mps
