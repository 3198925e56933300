// The simulation kernel: a clock plus the event loop.
//
// Usage:
//   Simulator sim;
//   sim.at(Duration::millis(5), [] { ... });
//   sim.run_until(TimePoint::origin() + Duration::seconds(60));
//
// All model objects hold a Simulator& and schedule their activity through
// it. The simulator is strictly single-threaded; determinism follows from
// the FIFO tie-break in EventQueue plus seeded RNGs.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "sim/event_queue.h"
#include "util/time.h"

namespace mps {

class FlightRecorder;  // obs/recorder.h; the simulator only carries the pointer

// Progress heartbeat payload: a wall-clock-timed snapshot of the run loop,
// handed to the callback installed with Simulator::set_heartbeat. Rates are
// computed over the interval since the previous beat.
struct HeartbeatStats {
  std::uint64_t events = 0;        // total events processed so far
  double events_per_sec = 0.0;     // since the previous beat
  double sim_s = 0.0;              // sim clock, seconds since origin
  double wall_s = 0.0;             // wall clock, seconds since attach
  double sim_per_wall = 0.0;       // sim seconds advanced per wall second, since last beat
};
using HeartbeatFn = std::function<void(const HeartbeatStats&)>;

// Heartbeat knobs carried by runner parameter structs (exp/). interval_s <= 0
// or a null fn means off; the runner then never touches the simulator.
struct HeartbeatConfig {
  double interval_s = 0.0;
  HeartbeatFn fn;

  bool enabled() const { return interval_s > 0.0 && static_cast<bool>(fn); }
};

class Simulator;

// Per-run kernel accounting the runners add into (borrowed out-param on the
// runner parameter structs): total events executed and sim time covered,
// accumulated across a scenario's repeated runs. Wall-clock-free, so filling
// it can never perturb a run.
struct RunTelemetry {
  std::uint64_t events = 0;
  double sim_s = 0.0;
  std::uint64_t scheduled = 0;    // schedule calls, each run's whole simulator
  std::uint64_t fire_digest = 0;  // each run's Simulator::fire_digest(), folded

  // Adds a finished run: events since `events_before`, sim time since `base`.
  void add(const Simulator& sim, std::uint64_t events_before, TimePoint base);
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const { return now_; }

  // Observability root for this simulation (borrowed, may be null). Attach
  // *before* constructing model objects: Subflow/Connection/Link register
  // their instruments at construction time and never re-check later.
  void set_recorder(FlightRecorder* recorder) { recorder_ = recorder; }
  FlightRecorder* recorder() const { return recorder_; }

  // Schedule at an absolute time (must be >= now()).
  EventId at(TimePoint when, Callback fn);
  // Schedule after a delay from now.
  EventId after(Duration delay, Callback fn) {
    return at(now_ + delay, std::move(fn));
  }
  // Schedule to run at the current time, after already-queued same-time
  // events (useful to break call-stack re-entrancy).
  EventId post(Callback fn) { return at(now_, std::move(fn)); }

  // Reserved stamps and in-place re-arm: see EventQueue.
  std::uint64_t reserve_seq() { return queue_.reserve_seq(); }
  EventId at_reserved(TimePoint when, std::uint64_t seq, Callback fn);
  bool postpone(EventId id, TimePoint when, Callback&& fn) {
    return queue_.postpone(id, when, std::move(fn));
  }

  void cancel(EventId id) { queue_.cancel(id); }
  // True while `id` is scheduled and has neither fired nor been cancelled.
  bool pending(EventId id) const { return queue_.live(id); }

  // Runs until the queue drains or the clock would pass `deadline`.
  // Events exactly at `deadline` are executed. Returns the number of events
  // processed.
  std::uint64_t run_until(TimePoint deadline);

  // Runs until the queue drains entirely.
  std::uint64_t run() { return run_until(TimePoint::never()); }

  // Executes at most one event. Returns false if none are pending.
  bool step();

  bool idle() const { return queue_.empty(); }
  std::uint64_t events_processed() const { return processed_; }
  std::uint64_t events_scheduled() const { return scheduled_; }  // postpones not counted
  // Always-on 64-bit digest of every fired (when, seq) in fire order: equal
  // digests mean the same events fired in the same order.
  std::uint64_t fire_digest() const { return digest_; }

  // Requests run loops to stop after the current event; used by scenario
  // drivers that detect their stop condition from inside a callback.
  void request_stop() { stop_requested_ = true; }

  // Installs a progress heartbeat: `fn` fires from inside the run loop
  // roughly every `interval_s` wall seconds (checked every kHeartbeatStride
  // events, so an idle queue never beats). The callback must not touch the
  // simulation — it exists for stderr progress lines, which is why it is
  // driven purely by the wall clock: enabling it cannot change event
  // ordering or RNG draws. Pass interval_s <= 0 or a null fn to detach.
  void set_heartbeat(double interval_s, HeartbeatFn fn);
  bool heartbeat_attached() const { return heartbeat_ != nullptr; }

  // --- snapshot-and-fork support (exp/snapshot.h) ---------------------------
  // Copies the clock and pending-event structure from `src`. Every cloned
  // event's callback is empty; owners must rebind() with the EventIds they
  // hold before the loop runs. Only valid between runs (never re-entrantly).
  void clone_events_from(const Simulator& src) {
    queue_.clone_structure_from(src.queue_);
    now_ = src.now_;
    processed_ = src.processed_;
    scheduled_ = src.scheduled_;
    digest_ = src.digest_;
  }
  // Re-installs a cloned event's callback; false if `id` is not live.
  bool rebind(EventId id, Callback fn) { return queue_.rebind(id, std::move(fn)); }
  void collect_unbound_events(std::vector<std::pair<EventId, TimePoint>>& out) const {
    queue_.collect_unbound(out);
  }
  std::size_t pending_events() const { return queue_.size(); }

 private:
  // Wall-clock polling cadence for the heartbeat, in events. At the kernel's
  // measured ~7M events/s this checks the clock a few thousand times per
  // second; off the heartbeat path the cost is one null check per event.
  static constexpr std::uint32_t kHeartbeatStride = 2048;

  struct Heartbeat {
    double interval_s = 1.0;
    HeartbeatFn fn;
    std::chrono::steady_clock::time_point attach_wall;
    std::chrono::steady_clock::time_point last_wall;
    std::uint64_t last_events = 0;
    TimePoint last_sim = TimePoint::origin();
    std::uint32_t countdown = kHeartbeatStride;
  };

  void heartbeat_poll();
  // Advances the clock and adds a hash of (when, seq, fire index) to the
  // digest; a sum, unlike a chained hash, adds no serial latency per event.
  void enter(const EventQueue::Fired& fired) {
    now_ = fired.when;
    const std::uint64_t h =
        ((static_cast<std::uint64_t>(fired.when.ns()) + processed_ * 0x9e3779b97f4a7c15ULL) ^
         (fired.seq * 0xc2b2ae3d27d4eb4fULL)) * 0xff51afd7ed558ccdULL;
    digest_ += h ^ (h >> 32);
  }

  EventQueue queue_;
  TimePoint now_ = TimePoint::origin();
  std::uint64_t processed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t digest_ = 0;
  bool stop_requested_ = false;
  FlightRecorder* recorder_ = nullptr;
  std::unique_ptr<Heartbeat> heartbeat_;
};

// RAII one-shot timer. Owns at most one pending event; rescheduling or
// destroying the timer cancels the previous event, so callbacks can never
// fire into a destroyed owner.
//
// The owner's closure goes straight into the event queue's slot, the only
// copy of it; the timer keeps just the event id and deadline and asks the
// queue whether that event is still live. A reschedule to a deadline no
// earlier than the pending one (every ACK pushes the RTO out) is a
// postpone, otherwise a cancel plus a schedule. The timer is 24 bytes.
class Timer {
 public:
  explicit Timer(Simulator& sim) : sim_(sim) {}
  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  void schedule_at(TimePoint when, Callback fn) {
    if (!sim_.postpone(id_, when, std::move(fn))) {  // leaves fn intact when false
      cancel();
      id_ = sim_.at(when, std::move(fn));
    }
    deadline_ = when;
  }

  void schedule_after(Duration delay, Callback fn) {
    schedule_at(sim_.now() + delay, std::move(fn));
  }

  // A fired or already-cancelled id is a no-op for the queue.
  void cancel() {
    sim_.cancel(id_);
    id_ = kInvalidEventId;
  }

  // False from the moment the event is popped, so a callback sees its own
  // timer idle and may reschedule it.
  bool pending() const { return sim_.pending(id_); }
  TimePoint deadline() const { return pending() ? deadline_ : TimePoint::never(); }

  // Snapshot support: adopt `src`'s pending event (same EventId) onto this
  // timer, whose simulator's queue was structure-cloned from src's. `fn` is
  // the owner's freshly built callback — the source's closure captures the
  // source owner and cannot be reused.
  void clone_from(const Timer& src, Callback fn) {
    cancel();
    if (!src.pending()) return;
    id_ = src.id_;
    deadline_ = src.deadline_;
    sim_.rebind(id_, std::move(fn));
  }

 private:
  Simulator& sim_;
  EventId id_ = kInvalidEventId;
  TimePoint deadline_ = TimePoint::never();
};

}  // namespace mps
