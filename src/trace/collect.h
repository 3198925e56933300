// Trace collectors: periodic samplers over the stack's state.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "mptcp/connection.h"
#include "sim/simulator.h"
#include "tcp/subflow.h"
#include "trace/series.h"

namespace mps {

// Samples a value periodically (paper Fig. 3's send-buffer occupancy).
// `until` bounds the sampling: once the simulation clock passes it, the
// sampler stops rescheduling itself, so Simulator::run() (which drains the
// event queue) terminates. The default never-deadline preserves the old
// behaviour for run_until()-style drivers.
class PeriodicSampler {
 public:
  PeriodicSampler(Simulator& sim, Duration interval, std::function<double()> probe,
                  TimePoint until = TimePoint::never())
      : sim_(sim), interval_(interval), until_(until), probe_(std::move(probe)), timer_(sim) {
    tick();
  }

  // Snapshot support (exp/snapshot.h): tag for constructing a sampler that
  // takes no initial sample and schedules nothing — restore_from supplies
  // the recorded points and the pending tick event.
  struct deferred_t {};
  PeriodicSampler(deferred_t, Simulator& sim, Duration interval, std::function<double()> probe,
                  TimePoint until = TimePoint::never())
      : sim_(sim), interval_(interval), until_(until), probe_(std::move(probe)), timer_(sim) {}

  // Adopts `src`'s series, running flag, and pending tick. Call after the
  // simulator's event queue has been cloned.
  void restore_from(const PeriodicSampler& src) {
    series_ = src.series_;
    running_ = src.running_;
    timer_.clone_from(src.timer_, [this] { tick(); });
  }

  // Stops future samples; already-recorded points are kept.
  void stop() {
    running_ = false;
    timer_.cancel();
  }
  bool running() const { return running_; }

  const TimeSeries& series() const { return series_; }

 private:
  void tick() {
    if (!running_) return;
    series_.add(sim_.now(), probe_());
    if (!until_.is_never() && sim_.now() + interval_ > until_) {
      running_ = false;
      return;
    }
    timer_.schedule_after(interval_, [this] { tick(); });
  }

  Simulator& sim_;
  Duration interval_;
  TimePoint until_;
  std::function<double()> probe_;
  Timer timer_;
  TimeSeries series_;
  bool running_ = true;
};

// Per-subflow send-buffer occupancy: staged (scheduled, awaiting CWND) plus
// un-acked in-flight bytes — "including in-flight packets" as in paper
// Fig. 3.
inline double subflow_sndbuf_bytes(const Subflow& sf) {
  return static_cast<double>(sf.staged_bytes()) +
         static_cast<double>(sf.inflight_segments()) * sf.mss();
}

}  // namespace mps
