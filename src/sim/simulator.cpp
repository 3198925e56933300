#include "sim/simulator.h"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "obs/prof.h"

namespace mps {

EventId Simulator::at(TimePoint when, Callback fn) {
  return at_reserved(when, queue_.reserve_seq(), std::move(fn));
}

EventId Simulator::at_reserved(TimePoint when, std::uint64_t seq, Callback fn) {
  if (when < now_) {
    throw std::logic_error("Simulator::at: scheduling into the past");
  }
  ++scheduled_;
  return queue_.schedule_reserved(when, seq, std::move(fn));
}

void RunTelemetry::add(const Simulator& sim, std::uint64_t events_before, TimePoint base) {
  events += sim.events_processed() - events_before;
  sim_s += (sim.now() - base).to_seconds();
  scheduled += sim.events_scheduled();
  fire_digest = (fire_digest ^ sim.fire_digest()) * 0x100000001b3ULL + 1;
}

std::uint64_t Simulator::run_until(TimePoint deadline) {
  std::uint64_t n = 0;
  stop_requested_ = false;
  while (true) {
    EventQueue::Fired fired;
    {
      MPS_PROF_SCOPE(kEventPop);
      if (!queue_.pop_until(deadline, fired)) break;
    }
    enter(fired);
    {
      MPS_PROF_SCOPE(kEventDispatch);
      fired.fn();
    }
    ++processed_;
    ++n;
    if (heartbeat_ != nullptr && --heartbeat_->countdown == 0) [[unlikely]] {
      heartbeat_poll();
    }
    if (stop_requested_) break;
  }
  // The clock advances to the deadline even if the queue drained earlier,
  // so wall-clock-style measurements spanning idle tails stay correct.
  if (!deadline.is_never() && now_ < deadline && !stop_requested_) now_ = deadline;
  return n;
}

bool Simulator::step() {
  EventQueue::Fired fired;
  {
    MPS_PROF_SCOPE(kEventPop);
    if (!queue_.pop_until(TimePoint::never(), fired)) return false;
  }
  assert(fired.when >= now_);
  enter(fired);
  {
    MPS_PROF_SCOPE(kEventDispatch);
    fired.fn();
  }
  ++processed_;
  return true;
}

void Simulator::set_heartbeat(double interval_s, HeartbeatFn fn) {
  if (interval_s <= 0.0 || !fn) {
    heartbeat_.reset();
    return;
  }
  auto hb = std::make_unique<Heartbeat>();
  hb->interval_s = interval_s;
  hb->fn = std::move(fn);
  hb->attach_wall = hb->last_wall = std::chrono::steady_clock::now();
  hb->last_events = processed_;
  hb->last_sim = now_;
  heartbeat_ = std::move(hb);
}

void Simulator::heartbeat_poll() {
  Heartbeat& hb = *heartbeat_;
  hb.countdown = kHeartbeatStride;
  const auto now_wall = std::chrono::steady_clock::now();
  const double since_s = std::chrono::duration<double>(now_wall - hb.last_wall).count();
  if (since_s < hb.interval_s) return;

  HeartbeatStats stats;
  stats.events = processed_;
  stats.events_per_sec =
      since_s > 0.0 ? static_cast<double>(processed_ - hb.last_events) / since_s : 0.0;
  stats.sim_s = (now_ - TimePoint::origin()).to_seconds();
  stats.wall_s = std::chrono::duration<double>(now_wall - hb.attach_wall).count();
  stats.sim_per_wall = since_s > 0.0 ? (now_ - hb.last_sim).to_seconds() / since_s : 0.0;

  hb.last_wall = now_wall;
  hb.last_events = processed_;
  hb.last_sim = now_;
  hb.fn(stats);
}

}  // namespace mps
