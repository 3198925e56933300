// The path-scheduler extension point.
//
// A Scheduler answers one question, exactly as in the Linux MPTCP
// implementation: "which subflow should carry the next unscheduled
// segment?" Returning nullptr means "no subflow right now" — either all
// subflows are CWND-limited, or the scheduler deliberately waits for a
// faster subflow to free up (the ECF/BLEST behaviour).
//
// The paper's contribution (ECF) lives in src/core; baseline schedulers in
// src/sched. Connection calls pick() in a loop until it returns nullptr or
// the send queue / meta window is exhausted. A scheduler whose pick is
// stable (stable_pick()) lets Connection commit a whole run of segments per
// pick instead of one.
//
// Concrete schedulers derive from ArenaAllocated<Self> (traffic/arena.h) so
// per-flow construction under churn recycles slab slots.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "obs/decision.h"
#include "traffic/arena.h"
#include "util/time.h"

// Keeps decision-recording bodies out of the pick() hot path: the explain
// branch then costs one predicted test, with the cold body behind a call.
#if defined(__GNUC__)
#define MPS_SCHED_COLD __attribute__((noinline, cold))
#else
#define MPS_SCHED_COLD
#endif

namespace mps {

class Connection;
class FlightRecorder;
class Simulator;
class Subflow;

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // Chooses the subflow for the next segment, or nullptr to wait. A non-null
  // result must satisfy Subflow::can_send().
  virtual Subflow* pick(Connection& conn) = 0;

  virtual const char* name() const = 0;

  // Run-commit contract: true when pick() keeps returning the same subflow
  // for as long as that subflow can_accept(), i.e. committing segments to
  // the picked subflow changes no input of the next pick except that
  // subflow's own send-queue room. Connection then commits the whole run
  // with one Subflow::assign_segments call instead of re-picking per
  // segment. Must stay false for any scheduler whose choice reads state a
  // commit moves (ECF's and BLEST's k, round-robin's cursor), for
  // duplicate_to_all() schedulers, and for decorators that count picks.
  virtual bool stable_pick() const { return false; }

  // When true, the connection transmits a copy of every scheduled segment
  // on each other subflow with free window space (mptcp.org `redundant`
  // semantics); the meta receiver de-duplicates.
  virtual bool duplicate_to_all() const { return false; }

  // Clears per-connection state (a fresh connection reuses the object).
  virtual void reset() {}

  // The connection's subflow set changed: a subflow was added, entered the
  // draining teardown state, or was finalized (mptcp/path_manager.h).
  // Schedulers holding references into the subflow list — DAPS's departure
  // plan, round-robin's cursor — revalidate or rebuild here. Called after
  // the membership change is visible through conn.subflows(). Default: no
  // state to fix up.
  virtual void on_subflow_change(Connection& conn) { static_cast<void>(conn); }

  // Snapshot support (exp/snapshot.h): copies mutable scheduling state from
  // `src`, which must be the same concrete type. Stateful schedulers (ECF's
  // waiting flag, BLEST's lambda, DAPS's plan, round-robin's cursor)
  // override and chain up; wiring done by bind() is left untouched.
  virtual void restore_from(const Scheduler& src) {
    last_terms_pick_ = src.last_terms_pick_;
  }

  // --- decision tracing (Explain) -------------------------------------------
  // Connection calls this at construction, wiring the scheduler to the
  // simulator clock and its flight recorder (if one was attached to the
  // Simulator before the connection was built).
  void bind(Simulator& sim, std::uint32_t conn_id);

  // Optional per-decision hook, fired in addition to the flight recorder.
  void set_on_decision(std::function<void(TimePoint, const SchedDecision&)> fn) {
    on_decision_ = std::move(fn);
    explain_ = recorder_ != nullptr || static_cast<bool>(on_decision_);
  }

  // Called by Connection right after a successful pick() is committed to a
  // segment. Recording picks here — instead of on pick()'s hot return paths —
  // keeps the per-decision cost at zero when nothing is listening (the
  // microbenchmark calls pick() directly and must not regress). Skips the
  // record when the scheduler already logged this pick with its full
  // decision terms (ECF's explain path).
  // True while a flight recorder or decision hook listens; Connection then
  // commits one segment per pick so every decision is recorded.
  bool explaining() const { return explain_; }

  void note_scheduled(std::int64_t subflow) const {
    if (!explain_) [[likely]] {
      return;
    }
    note_scheduled_slow(subflow);
  }

 protected:
  // Schedulers guard their decision bookkeeping with this: a single
  // well-predicted bool test, so pick() stays at its uninstrumented cost
  // when nothing is listening. Pair it with [[unlikely]] and keep the
  // recording body outlined (note_pick / a MPS_SCHED_COLD helper) so the
  // compiler does not bloat the hot path with the SchedDecision fill.
  bool explain_enabled() const { return explain_; }
  std::int64_t bound_conn_id() const { return conn_id_; }

  // Stamps `d` with conn id + sim time and routes it to the recorder's
  // decision log (aggregates + optional full log + event sink) and the hook.
  void note_decision(SchedDecision d) const;

  // Outlined plain pick/wait records, for the schedulers whose decision
  // carries no extra quantities.
  void note_pick(std::int64_t subflow) const;
  void note_wait(std::int64_t subflow) const;

 private:
  void note_scheduled_slow(std::int64_t subflow) const;

  Simulator* sim_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
  std::int64_t conn_id_ = -1;
  bool explain_ = false;
  std::function<void(TimePoint, const SchedDecision&)> on_decision_;
  // Subflow of the last terms-bearing pick note_decision recorded, so
  // note_scheduled does not double-count it. -1 when none is pending.
  mutable std::int64_t last_terms_pick_ = -1;
};

// Factory so scenario code can instantiate one scheduler per connection.
using SchedulerFactory = std::function<std::unique_ptr<Scheduler>()>;

}  // namespace mps
