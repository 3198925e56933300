// Tests for the discrete-event kernel: ordering, cancellation, timers.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace mps {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint::from_ns(30), [&] { order.push_back(3); });
  q.schedule(TimePoint::from_ns(10), [&] { order.push_back(1); });
  q.schedule(TimePoint::from_ns(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoAmongEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(TimePoint::from_ns(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, CancelRemovesEvent) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule(TimePoint::from_ns(10), [&] { ++fired; });
  q.schedule(TimePoint::from_ns(20), [&] { ++fired; });
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancelUnknownIsNoop) {
  EventQueue q;
  q.cancel(12345);
  q.cancel(kInvalidEventId);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(TimePoint::from_ns(5), [] {});
  q.schedule(TimePoint::from_ns(50), [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time().ns(), 50);
}

TEST(EventQueueTest, EmptyAfterAllCancelled) {
  EventQueue q;
  const EventId a = q.schedule(TimePoint::from_ns(5), [] {});
  const EventId b = q.schedule(TimePoint::from_ns(9), [] {});
  q.cancel(b);  // cancel a non-top entry first
  q.cancel(a);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.next_time().is_never());
}

TEST(EventQueueTest, StaleIdAfterSlotReuseIsNoop) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.schedule(TimePoint::from_ns(10), [&] { fired = 1; });
  q.cancel(a);
  // The freed slot is reused by the next schedule; the old id must not be
  // able to reach through to the new occupant.
  const EventId b = q.schedule(TimePoint::from_ns(20), [&] { fired = 2; });
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 2);
  (void)b;
}

TEST(EventQueueTest, CancelAfterFireIsNoop) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.schedule(TimePoint::from_ns(10), [&] { ++fired; });
  q.schedule(TimePoint::from_ns(20), [&] { ++fired; });
  q.pop().fn();  // fires a
  q.cancel(a);   // stale; must not disturb the remaining entry
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_EQ(fired, 2);
}

// Regression for dead-entry accumulation: a workload that cancels nearly
// everything it schedules (the RTO-restart pattern) must keep size() exact —
// cancelled entries may not linger in the queue in any observable way.
TEST(EventQueueTest, SizeStaysExactUnderCancelHeavyChurn) {
  EventQueue q;
  std::uint64_t lcg = 42;
  auto rnd = [&lcg](std::uint64_t mod) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return (lcg >> 33) % mod;
  };
  std::vector<EventId> live;
  for (int i = 0; i < 20000; ++i) {
    const auto when = TimePoint::from_ns(static_cast<std::int64_t>(rnd(1000)));
    live.push_back(q.schedule(when, [] {}));
    // Cancel a random live entry ~95% of the time: the live set stays tiny
    // while churn is huge, so any tombstoning would show up as size() drift.
    if (rnd(100) < 95 && !live.empty()) {
      const std::size_t k = rnd(live.size());
      q.cancel(live[k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    }
    ASSERT_EQ(q.size(), live.size());
  }
  EXPECT_LT(q.size(), 2000u);
  std::size_t popped = 0;
  TimePoint prev = TimePoint::from_ns(-1);
  while (!q.empty()) {
    auto ev = q.pop();
    EXPECT_GE(ev.when.ns(), prev.ns());
    prev = ev.when;
    ++popped;
  }
  EXPECT_EQ(popped, live.size());
}

// Property test: run a random schedule/cancel/pop workload against a naive
// reference model and require identical firing order — including the FIFO
// tie-break among equal timestamps — and identical size() at every step.
TEST(EventQueueTest, ChurnMatchesReferenceModel) {
  struct Ref {
    std::int64_t when;
    std::uint64_t order;  // global insertion counter = FIFO tie-break key
    int tag;
  };
  EventQueue q;
  std::vector<Ref> model;               // live entries, unordered
  std::vector<std::pair<EventId, std::size_t>> ids;  // queue id -> tag
  std::vector<int> fired_queue, fired_model;
  std::uint64_t order = 0;
  int tag = 0;
  std::uint64_t lcg = 7;
  auto rnd = [&lcg](std::uint64_t mod) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return (lcg >> 33) % mod;
  };
  auto model_pop = [&model]() {
    std::size_t best = 0;
    for (std::size_t i = 1; i < model.size(); ++i) {
      if (model[i].when < model[best].when ||
          (model[i].when == model[best].when &&
           model[i].order < model[best].order)) {
        best = i;
      }
    }
    const int t = model[best].tag;
    model.erase(model.begin() + static_cast<std::ptrdiff_t>(best));
    return t;
  };
  for (int step = 0; step < 8000; ++step) {
    const std::uint64_t op = rnd(10);
    if (op < 5 || model.empty()) {
      // Coarse timestamps force plenty of same-time collisions so the FIFO
      // tie-break is actually exercised.
      const std::int64_t when = static_cast<std::int64_t>(rnd(50));
      const int t = tag++;
      ids.emplace_back(
          q.schedule(TimePoint::from_ns(when),
                     [&fired_queue, t] { fired_queue.push_back(t); }),
          static_cast<std::size_t>(t));
      model.push_back({when, order++, t});
    } else if (op < 8) {
      const std::size_t k = rnd(ids.size());
      q.cancel(ids[k].first);
      const int t = static_cast<int>(ids[k].second);
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(k));
      for (std::size_t i = 0; i < model.size(); ++i) {
        if (model[i].tag == t) {
          model.erase(model.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    } else {
      q.pop().fn();
      fired_model.push_back(model_pop());
      const int t = fired_model.back();
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (static_cast<int>(ids[i].second) == t) {
          ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
    ASSERT_EQ(q.size(), model.size()) << "after step " << step;
  }
  while (!q.empty()) {
    q.pop().fn();
    fired_model.push_back(model_pop());
  }
  EXPECT_EQ(fired_queue, fired_model);
  EXPECT_TRUE(model.empty());
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  TimePoint seen;
  sim.after(Duration::millis(7), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen.ns(), Duration::millis(7).ns());
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.after(Duration::millis(1), [&] { ++fired; });
  sim.after(Duration::millis(100), [&] { ++fired; });
  sim.run_until(TimePoint::origin() + Duration::millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().ns(), Duration::millis(10).ns());
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventsAtDeadlineRun) {
  Simulator sim;
  bool fired = false;
  sim.after(Duration::millis(10), [&] { fired = true; });
  sim.run_until(TimePoint::origin() + Duration::millis(10));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, SchedulingIntoPastThrows) {
  Simulator sim;
  sim.after(Duration::millis(5), [&] {
    EXPECT_THROW(sim.at(TimePoint::origin(), [] {}), std::logic_error);
  });
  sim.run();
}

TEST(SimulatorTest, NestedSchedulingFromCallback) {
  Simulator sim;
  std::vector<int> order;
  sim.after(Duration::millis(1), [&] {
    order.push_back(1);
    sim.after(Duration::millis(1), [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now().ns(), Duration::millis(2).ns());
}

TEST(SimulatorTest, PostRunsAtCurrentTimeAfterQueued) {
  Simulator sim;
  std::vector<int> order;
  sim.after(Duration::millis(1), [&] {
    sim.post([&] { order.push_back(2); });
    order.push_back(1);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorTest, RequestStopBreaksRun) {
  Simulator sim;
  int fired = 0;
  sim.after(Duration::millis(1), [&] {
    ++fired;
    sim.request_stop();
  });
  sim.after(Duration::millis(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, StepProcessesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.after(Duration::millis(1), [&] { ++fired; });
  sim.after(Duration::millis(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(TimerTest, ReschedulingCancelsPrevious) {
  Simulator sim;
  Timer timer(sim);
  int fired = 0;
  timer.schedule_after(Duration::millis(5), [&] { fired = 5; });
  timer.schedule_after(Duration::millis(2), [&] { fired = 2; });
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(TimerTest, CancelPreventsFire) {
  Simulator sim;
  Timer timer(sim);
  bool fired = false;
  timer.schedule_after(Duration::millis(5), [&] { fired = true; });
  timer.cancel();
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(timer.pending());
}

TEST(TimerTest, DestructorCancels) {
  Simulator sim;
  bool fired = false;
  {
    Timer timer(sim);
    timer.schedule_after(Duration::millis(5), [&] { fired = true; });
  }
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(TimerTest, PendingAndDeadline) {
  Simulator sim;
  Timer timer(sim);
  EXPECT_FALSE(timer.pending());
  timer.schedule_after(Duration::millis(3), [] {});
  EXPECT_TRUE(timer.pending());
  EXPECT_EQ(timer.deadline().ns(), Duration::millis(3).ns());
  sim.run();
  EXPECT_FALSE(timer.pending());
}

TEST(TimerTest, CanRescheduleFromOwnCallback) {
  Simulator sim;
  Timer timer(sim);
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 3) timer.schedule_after(Duration::millis(1), tick);
  };
  timer.schedule_after(Duration::millis(1), tick);
  sim.run();
  EXPECT_EQ(count, 3);
}

// The timer keeps no callback of its own: pending() and deadline() come from
// the queue's liveness check on the event id.
TEST(TimerTest, IdleAfterFireEvenWhenTheSlotIsReused) {
  Simulator sim;
  Timer timer(sim);
  timer.schedule_after(Duration::millis(3), [] {});
  sim.run();
  EXPECT_FALSE(timer.pending());
  EXPECT_TRUE(timer.deadline().is_never());
  // The fired event's slot is recycled for the next event; the stale id
  // must not make the timer look armed, and cancel() must not touch it.
  bool other_fired = false;
  sim.after(Duration::millis(1), [&] { other_fired = true; });
  EXPECT_FALSE(timer.pending());
  timer.cancel();
  sim.run();
  EXPECT_TRUE(other_fired);
}

TEST(TimerTest, RescheduleFromOwnCallbackSeesIdleThenArmed) {
  Simulator sim;
  Timer timer(sim);
  bool was_pending_inside = true;
  TimePoint deadline_inside = TimePoint::origin();
  int fires = 0;
  timer.schedule_after(Duration::millis(2), [&] {
    ++fires;
    was_pending_inside = timer.pending();
    deadline_inside = timer.deadline();
    timer.schedule_after(Duration::millis(5), [&] { ++fires; });
  });
  sim.run_until(TimePoint::origin() + Duration::millis(3));
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(was_pending_inside);
  EXPECT_TRUE(deadline_inside.is_never());
  EXPECT_TRUE(timer.pending());
  EXPECT_EQ(timer.deadline().ns(), Duration::millis(7).ns());
  sim.run();
  EXPECT_EQ(fires, 2);
  EXPECT_FALSE(timer.pending());
}

TEST(TimerTest, CloneFromAdoptsPendingEventWithNewCallback) {
  Simulator src;
  Timer armed(src);
  Timer idle(src);
  bool src_fired = false;
  armed.schedule_after(Duration::millis(4), [&] { src_fired = true; });

  Simulator dst;
  dst.clone_events_from(src);
  Timer armed_copy(dst);
  Timer idle_copy(dst);
  bool copy_fired = false;
  armed_copy.clone_from(armed, [&] { copy_fired = true; });
  idle_copy.clone_from(idle, [] { FAIL() << "idle timer's clone must not be armed"; });
  EXPECT_TRUE(armed_copy.pending());
  EXPECT_EQ(armed_copy.deadline().ns(), armed.deadline().ns());
  EXPECT_FALSE(idle_copy.pending());
  std::vector<std::pair<EventId, TimePoint>> unbound;
  dst.collect_unbound_events(unbound);
  EXPECT_TRUE(unbound.empty());

  dst.run();
  EXPECT_TRUE(copy_fired);
  EXPECT_FALSE(src_fired);  // the source world is untouched
  EXPECT_FALSE(armed_copy.pending());
  EXPECT_TRUE(armed.pending());
}

// The wheel-vs-reference equivalence harness: drives an EventQueue and a
// brute-force model (linear-scan min by (when, insertion order)) through the
// same randomized schedule/cancel/pop trace and demands identical fire order
// and identical size() at every step. `span_ns` controls how far apart
// timestamps land, i.e. which wheel levels (or the far-future heap) the
// events exercise; `monotone` anchors timestamps at the last popped time,
// mimicking a real simulation clock.
void RunChurnEquivalence(std::uint64_t seed, std::int64_t span_ns, bool monotone,
                         int steps) {
  struct Ref {
    std::int64_t when;
    std::uint64_t order;
    int tag;
  };
  EventQueue q;
  std::vector<Ref> model;
  std::vector<std::pair<EventId, int>> ids;
  std::vector<int> fired_queue;
  std::uint64_t order = 0;
  int tag = 0;
  std::uint64_t lcg = seed;
  auto rnd = [&lcg](std::uint64_t mod) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return (lcg >> 33) % mod;
  };
  std::int64_t now = 0;
  for (int step = 0; step < steps; ++step) {
    ASSERT_EQ(q.size(), model.size()) << "step " << step;
    const std::uint64_t op = rnd(10);
    if (op < 5 || model.empty()) {
      const std::int64_t when =
          (monotone ? now : std::int64_t{0}) + static_cast<std::int64_t>(rnd(
              static_cast<std::uint64_t>(span_ns)));
      const int t = tag++;
      ids.emplace_back(q.schedule(TimePoint::from_ns(when),
                                  [&fired_queue, t] { fired_queue.push_back(t); }),
                       t);
      model.push_back({when, order++, t});
    } else if (op < 7 && !ids.empty()) {
      const std::size_t k = rnd(ids.size());
      q.cancel(ids[k].first);
      const int t = ids[k].second;
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(k));
      for (std::size_t i = 0; i < model.size(); ++i) {
        if (model[i].tag == t) {
          model.erase(model.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    } else {
      std::size_t best = 0;
      for (std::size_t i = 1; i < model.size(); ++i) {
        if (model[i].when < model[best].when ||
            (model[i].when == model[best].when && model[i].order < model[best].order)) {
          best = i;
        }
      }
      ASSERT_EQ(q.next_time().ns(), model[best].when) << "step " << step;
      q.pop().fn();
      ASSERT_FALSE(fired_queue.empty());
      ASSERT_EQ(fired_queue.back(), model[best].tag) << "step " << step;
      now = std::max(now, model[best].when);
      const int t = model[best].tag;
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(best));
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (ids[i].second == t) {
          ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
  }
  while (!q.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < model.size(); ++i) {
      if (model[i].when < model[best].when ||
          (model[i].when == model[best].when && model[i].order < model[best].order)) {
        best = i;
      }
    }
    q.pop().fn();
    ASSERT_EQ(fired_queue.back(), model[best].tag);
    model.erase(model.begin() + static_cast<std::ptrdiff_t>(best));
  }
  EXPECT_TRUE(model.empty());
}

// Spans chosen around the wheel geometry (tick = 2^17 ns ~ 131 us; level
// spans ~33.6 ms / ~8.6 s / ~36.7 min): single-tick collisions, level-0
// only, level-0/1 boundary, level-1/2 boundary, and far enough that events
// overflow to the heap and back onto the wheel as the cursor advances.
TEST(EventQueueTest, WheelChurnSingleTick) {
  RunChurnEquivalence(/*seed=*/7, /*span_ns=*/50, /*monotone=*/false, 6000);
}

TEST(EventQueueTest, WheelChurnLevel0) {
  RunChurnEquivalence(/*seed=*/11, /*span_ns=*/20'000'000, /*monotone=*/true, 6000);
}

TEST(EventQueueTest, WheelChurnLevel01Boundary) {
  RunChurnEquivalence(/*seed=*/13, /*span_ns=*/200'000'000, /*monotone=*/true, 6000);
}

TEST(EventQueueTest, WheelChurnLevel12Boundary) {
  RunChurnEquivalence(/*seed=*/17, /*span_ns=*/60'000'000'000, /*monotone=*/true, 4000);
}

TEST(EventQueueTest, WheelChurnBeyondHorizonUsesHeap) {
  RunChurnEquivalence(/*seed=*/19, /*span_ns=*/4'000'000'000'000, /*monotone=*/true, 3000);
}

TEST(EventQueueTest, WheelChurnMixedSpansNonMonotone) {
  RunChurnEquivalence(/*seed=*/23, /*span_ns=*/9'000'000'000, /*monotone=*/false, 6000);
}

// Events scheduled behind the wheel cursor (possible when the simulated
// clock advanced via a heap event) still fire in exact (when, seq) order.
TEST(EventQueueTest, OverdueScheduleAfterCursorAdvance) {
  EventQueue q;
  std::vector<int> fired;
  // Far-future event lands in the heap; popping it does not move the wheel.
  q.schedule(TimePoint::from_ns(7'200'000'000'000), [&] { fired.push_back(0); });
  // Wheel residents establish a cursor near t=1ms; the 2ms one stays put so
  // the cursor cannot reset when the 1ms event pops.
  q.schedule(TimePoint::from_ns(1'000'000), [&] { fired.push_back(1); });
  q.schedule(TimePoint::from_ns(2'000'000), [&] { fired.push_back(5); });
  q.pop().fn();  // t=1ms wheel event
  // Now schedule earlier than the cursor's tick: clamps into the current
  // bucket, but must still fire before the 2ms event, in exact (when, seq)
  // order among themselves.
  q.schedule(TimePoint::from_ns(500), [&] { fired.push_back(2); });
  q.schedule(TimePoint::from_ns(400), [&] { fired.push_back(3); });
  q.schedule(TimePoint::from_ns(500), [&] { fired.push_back(4); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 3, 2, 4, 5, 0}));
}

}  // namespace
}  // namespace mps
