// Tests for the discrete-event kernel: ordering, cancellation, timers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
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

// Differential test of the kernel's three homes (wheel buckets, ready heap,
// far heap) against a brute-force (when, seq) reference. The seeded stream
// mixes same-tick ties, schedules behind the cursor (they land in the ready
// heap), events past the 2^41 ns wheel horizon interleaved with near ones,
// cancels followed at once by a schedule that reuses the freed slot, and
// pop_until exactly at (and just before) the earliest deadline. It also
// drives the reserved-stamp calls: reserve_seq + schedule_reserved placed in
// reverse order around a plain schedule, and postpone of wheel, ready and
// far residents (to a tie, to the upper levels, past the horizon, refused
// when earlier or stale, and cancelled right after). Midway the queue is
// cloned with clone_structure_from + rebind; from then on every op goes to
// both queues, which must issue the same ids and stamps and pop the same
// sequence as the reference.
TEST(EventQueueTest, KernelPathsMatchReferenceModel) {
  constexpr std::int64_t kTick = std::int64_t{1} << 17;
  constexpr std::int64_t kHorizon = std::int64_t{1} << 41;
  constexpr int kSteps = 20000;
  struct Ref {
    std::int64_t when;
    std::uint64_t order;
    int tag;
    EventId id;
  };
  std::vector<Ref> model;
  EventQueue src;
  EventQueue clone;
  bool cloned = false;
  std::vector<int> fired_src, fired_clone;
  std::size_t fired_before_clone = 0;
  std::uint64_t order = 0;
  int tag = 0;
  std::int64_t now = 0;
  std::uint64_t lcg = 0x5eed;
  auto rnd = [&lcg](std::uint64_t mod) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return (lcg >> 33) % mod;
  };
  auto recorder = [](std::vector<int>& out, int t) -> Callback {
    return [&out, t] { out.push_back(t); };
  };
  auto schedule = [&](std::int64_t when) {
    const int t = tag++;
    const EventId id = src.schedule(TimePoint::from_ns(when), recorder(fired_src, t));
    if (cloned) {
      ASSERT_EQ(clone.schedule(TimePoint::from_ns(when), recorder(fired_clone, t)), id);
    }
    model.push_back({when, order++, t, id});
  };
  // Takes two stamps around a plain schedule and places them in reverse
  // order; each must rank where its stamp was taken.
  auto reserve_and_place = [&](std::int64_t when_a, std::int64_t when_b) {
    struct Held {
      std::int64_t when;
      std::uint64_t order;
      std::uint64_t seq;
    };
    auto reserve = [&](std::int64_t when) {
      const std::uint64_t seq = src.reserve_seq();
      if (cloned) {
        EXPECT_EQ(clone.reserve_seq(), seq);
      }
      return Held{when, order++, seq};
    };
    const Held a = reserve(when_a);
    schedule(when_b);
    const Held b = reserve(when_b);
    for (const Held& h : {b, a}) {
      const int t = tag++;
      const EventId id =
          src.schedule_reserved(TimePoint::from_ns(h.when), h.seq, recorder(fired_src, t));
      if (cloned) {
        ASSERT_EQ(clone.schedule_reserved(TimePoint::from_ns(h.when), h.seq,
                                          recorder(fired_clone, t)),
                  id);
      }
      model.push_back({h.when, h.order, t, id});
    }
  };
  // Postpones model[k] to `when`: accepted (a fresh rank, same id) unless
  // `when` is earlier, in which case the callback must come back untouched.
  auto postpone = [&](std::size_t k, std::int64_t when) {
    Ref& r = model[k];
    const bool expect = when >= r.when;
    Callback a = recorder(fired_src, r.tag);
    Callback b = recorder(fired_clone, r.tag);
    ASSERT_EQ(src.postpone(r.id, TimePoint::from_ns(when), std::move(a)), expect);
    if (cloned) {
      ASSERT_EQ(clone.postpone(r.id, TimePoint::from_ns(when), std::move(b)), expect);
    }
    if (!expect) {
      ASSERT_TRUE(a);
      return;
    }
    r.when = when;
    r.order = order++;
  };
  auto model_min = [&model] {
    std::size_t best = 0;
    for (std::size_t i = 1; i < model.size(); ++i) {
      if (model[i].when < model[best].when ||
          (model[i].when == model[best].when && model[i].order < model[best].order)) {
        best = i;
      }
    }
    return best;
  };
  // pop_until(deadline) on both queues; the reference decides whether it pops.
  auto pop_until = [&](std::int64_t deadline) {
    const std::size_t best = model.empty() ? 0 : model_min();
    const bool expect = !model.empty() && model[best].when <= deadline;
    EventQueue::Fired a, b;
    ASSERT_EQ(src.pop_until(TimePoint::from_ns(deadline), a), expect);
    if (cloned) {
      ASSERT_EQ(clone.pop_until(TimePoint::from_ns(deadline), b), expect);
    }
    if (!expect) return;
    ASSERT_EQ(a.when.ns(), model[best].when);
    a.fn();
    ASSERT_EQ(fired_src.back(), model[best].tag);
    if (cloned) {
      ASSERT_EQ(b.when.ns(), model[best].when);
      b.fn();
      ASSERT_EQ(fired_clone.back(), model[best].tag);
    }
    now = std::max(now, model[best].when);
    model.erase(model.begin() + static_cast<std::ptrdiff_t>(best));
  };

  for (int step = 0; step < kSteps; ++step) {
    if (step == kSteps / 2) {
      clone.clone_structure_from(src);
      for (const Ref& r : model) ASSERT_TRUE(clone.rebind(r.id, recorder(fired_clone, r.tag)));
      std::vector<std::pair<EventId, TimePoint>> unbound;
      clone.collect_unbound(unbound);
      ASSERT_TRUE(unbound.empty());
      cloned = true;
      fired_before_clone = fired_src.size();
    }
    if (step % 2500 == 1250) {
      // Burst: a crowd of same-time events in one heap (ready at `now`, far
      // past the horizon), most cancelled at once, so the heap carries more
      // stale keys than live ones and is rebuilt.
      const std::int64_t when = step % 5000 == 1250 ? now : now + kHorizon;
      const std::size_t first = model.size();
      for (int i = 0; i < 200; ++i) schedule(when);
      for (int i = 0; i < 170; ++i) {
        const std::size_t k = first + rnd(model.size() - first);
        src.cancel(model[k].id);
        if (cloned) clone.cancel(model[k].id);
        model.erase(model.begin() + static_cast<std::ptrdiff_t>(k));
      }
    }
    const std::uint64_t kop = rnd(100);
    if (kop < 12 && !model.empty()) {
      // Postpone: to a tie a few half ticks on, up to 2^34 ns on (upper
      // levels), past the wheel horizon, or (refused) 1 ns earlier. Every
      // third accepted one is cancelled at once; its id must then be inert.
      const std::size_t k = rnd(model.size());
      const std::int64_t base = model[k].when;
      std::int64_t when = base + static_cast<std::int64_t>(rnd(4)) * (kTick / 2);
      if (kop % 4 == 1) when = base + kHorizon;
      if (kop % 4 == 2) when = base + static_cast<std::int64_t>(rnd(std::uint64_t{1} << 34));
      if (kop % 4 == 3 && base > 0) when = base - 1;
      postpone(k, when);
      if (kop % 3 == 0 && when >= base) {
        const EventId stale = model[k].id;
        src.cancel(stale);
        if (cloned) clone.cancel(stale);
        model.erase(model.begin() + static_cast<std::ptrdiff_t>(k));
        Callback fn = [] {};
        ASSERT_FALSE(src.postpone(stale, TimePoint::never(), std::move(fn)));
        ASSERT_TRUE(fn);
      }
    } else if (kop < 20) {
      reserve_and_place(now + static_cast<std::int64_t>(rnd(4)) * (kTick / 2),
                        kop % 2 == 0 ? now : now + kHorizon);
    }
    std::uint64_t op = rnd(100);
    // Hold a population of a few dozen events so every home stays occupied
    // (with nothing near the cursor, the next schedule may move it).
    if (model.size() < 40 && op >= 60) op = rnd(45);
    if (op < 25 || model.empty()) {
      // Near: half-tick granularity, so many events share a timestamp or a
      // tick; one in five reaches the upper wheel levels.
      const std::int64_t when = op % 5 == 0
          ? now + static_cast<std::int64_t>(rnd(std::uint64_t{1} << 34))
          : now + static_cast<std::int64_t>(rnd(4)) * (kTick / 2);
      schedule(when);
    } else if (op < 35) {
      // Behind the cursor: earlier than the last popped event.
      schedule(std::max<std::int64_t>(0, now - static_cast<std::int64_t>(rnd(3 * kTick))));
    } else if (op < 45) {
      // Past the horizon, with ties among themselves.
      schedule(now + kHorizon + static_cast<std::int64_t>(rnd(8)) * kTick);
    } else if (op < 60) {
      // Cancel; every other time reuse the freed slot at once. The stale id
      // must stay inert either way.
      const std::size_t k = rnd(model.size());
      const EventId stale = model[k].id;
      const std::int64_t when = model[k].when;
      src.cancel(stale);
      if (cloned) clone.cancel(stale);
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(k));
      if (op < 52) schedule(when);
      ASSERT_FALSE(src.live(stale));
      src.cancel(stale);
      if (cloned) clone.cancel(stale);
    } else if (op < 80) {
      pop_until(model[model_min()].when);  // exactly at the deadline: pops
    } else if (op < 90) {
      const std::int64_t earliest = model[model_min()].when;
      ASSERT_EQ(src.next_time().ns(), earliest) << "step " << step;
      pop_until(earliest - 1);  // one ns short: must not pop
    } else {
      pop_until(TimePoint::never().ns());
    }
    ASSERT_EQ(src.size(), model.size()) << "step " << step;
    if (cloned) {
      ASSERT_EQ(clone.size(), model.size()) << "step " << step;
    }
  }
  while (!model.empty()) pop_until(TimePoint::never().ns());
  EXPECT_TRUE(src.empty());
  EXPECT_TRUE(clone.empty());
  ASSERT_GT(fired_clone.size(), 1000u);
  EXPECT_EQ(fired_clone,
            std::vector<int>(fired_src.begin() + static_cast<std::ptrdiff_t>(fired_before_clone),
                             fired_src.end()));
}

// --- Callback storage -------------------------------------------------------

// Counts the live instances of a capture, so a chain of moves can show that
// every relocation leaves exactly one live copy and the last holder destroys
// it exactly once.
struct LiveCount {
  static inline int live = 0;
  LiveCount() { ++live; }
  LiveCount(const LiveCount&) { ++live; }
  LiveCount(LiveCount&&) noexcept { ++live; }
  ~LiveCount() { --live; }
};

// Moves `cb` through move construction, move assignment and a vector's
// reallocation, checking after every hop that one live capture remains.
template <typename Cb>
Cb MoveChain(Cb& cb) {
  EXPECT_EQ(LiveCount::live, 1);
  Cb b(std::move(cb));
  EXPECT_FALSE(cb);
  EXPECT_EQ(LiveCount::live, 1);
  Cb c;
  c = std::move(b);
  EXPECT_FALSE(b);
  EXPECT_EQ(LiveCount::live, 1);
  std::vector<Cb> v;
  v.push_back(std::move(c));
  v.emplace_back();  // grows the vector: relocates v[0]
  v.emplace_back();
  EXPECT_EQ(LiveCount::live, 1);
  Cb d(std::move(v.front()));
  v.clear();
  EXPECT_EQ(LiveCount::live, 1);
  return d;
}

TEST(CallbackTest, SharedPtrCaptureStaysInlineAndReleasesOnce) {
  auto p = std::make_shared<int>(41);
  LiveCount::live = 0;
  {
    Callback start;
    {
      auto f = [p, c = LiveCount{}] { ++*p; };
      static_assert(sizeof(f) <= Callback::kInlineBytes);
      start = std::move(f);
    }
    Callback cb = MoveChain(start);
    EXPECT_EQ(p.use_count(), 2);
    // Through an event-queue slot and out again.
    EventQueue q;
    q.schedule(TimePoint::from_ns(5), std::move(cb));
    EXPECT_EQ(p.use_count(), 2);
    EXPECT_EQ(LiveCount::live, 1);
    q.pop().fn();
  }
  EXPECT_EQ(*p, 42);
  EXPECT_EQ(LiveCount::live, 0);
  EXPECT_EQ(p.use_count(), 1);
}

// std::string is not trivially relocatable (the short form points into
// itself), so it must go through the closure's own move, never a memcpy.
template <typename Cb>
void CheckStringCapture(const std::string& text) {
  LiveCount::live = 0;
  std::string out;
  {
    Cb start = [s = text, c = LiveCount{}, o = &out] { *o = s; };
    Cb cb = MoveChain(start);
    cb();
    EXPECT_EQ(LiveCount::live, 1);
  }
  EXPECT_EQ(out, text);
  EXPECT_EQ(LiveCount::live, 0);
}

TEST(CallbackTest, StringCaptureRelocatesThroughItsMove) {
  CheckStringCapture<BasicCallback<void(), 48>>("short");  // inline
  CheckStringCapture<BasicCallback<void(), 48>>(std::string(100, 'x'));
  CheckStringCapture<Callback>("short");  // 48-byte closure: heap fallback
  CheckStringCapture<Callback>(std::string(100, 'x'));
}

template <typename Cb>
void CheckFunctionCapture() {
  LiveCount::live = 0;
  std::string out;
  {
    std::function<std::string()> fn = [] { return std::string("from std::function"); };
    Cb start = [fn, c = LiveCount{}, o = &out] { *o = fn(); };
    Cb cb = MoveChain(start);
    cb();
  }
  EXPECT_EQ(out, "from std::function");
  EXPECT_EQ(LiveCount::live, 0);
}

TEST(CallbackTest, FunctionCaptureRelocatesOnce) {
  CheckFunctionCapture<BasicCallback<void(), 48>>();  // inline
  CheckFunctionCapture<Callback>();                   // heap fallback
}

TEST(CallbackTest, OversizedClosureSpillsToTheHeapAndFreesOnce) {
  LiveCount::live = 0;
  std::uint64_t sum = 0;
  {
    Callback start;
    {
      const std::array<std::uint64_t, 4> big{1, 2, 3, 4};
      auto f = [big, c = LiveCount{}, o = &sum] {
        for (const std::uint64_t x : big) *o += x;
      };
      static_assert(sizeof(f) > Callback::kInlineBytes);
      start = std::move(f);
    }
    Callback cb = MoveChain(start);
    cb();
  }
  EXPECT_EQ(sum, 10u);
  EXPECT_EQ(LiveCount::live, 0);
}

TEST(CallbackTest, TriviallyCopyableClosureSurvivesMemcpyRelocation) {
  std::uint64_t out = 0;
  const std::uint64_t a = 7, b = 35;
  auto f = [a, b, o = &out] { *o = a + b; };
  static_assert(std::is_trivially_copyable_v<decltype(f)>);
  static_assert(sizeof(f) == Callback::kInlineBytes);
  LiveCount::live = 1;  // MoveChain's bookkeeping; this closure holds no counter
  Callback start = f;
  Callback cb = MoveChain(start);
  cb();
  EXPECT_EQ(out, 42u);
  LiveCount::live = 0;
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

// With nothing pending near the cursor, a schedule moves the cursor to its
// own tick, which may lie past a far-heap resident. The far event must still
// fire first, ahead of ready-heap events scheduled after it.
TEST(EventQueueTest, FarResidentFiresBeforeReadyAfterCursorJump) {
  constexpr std::int64_t kFar = std::int64_t{1} << 42;  // past the 2^41 ns horizon
  EventQueue q;
  std::vector<int> fired;
  q.schedule(TimePoint::from_ns(0), [&] { fired.push_back(0); });
  q.schedule(TimePoint::from_ns(kFar), [&] { fired.push_back(1); });  // far heap
  q.pop().fn();
  q.schedule(TimePoint::from_ns(2 * kFar), [&] { fired.push_back(3); });   // cursor jumps here
  q.schedule(TimePoint::from_ns(kFar + 1), [&] { fired.push_back(2); });   // behind it: ready
  EXPECT_EQ(q.next_time().ns(), kFar);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace mps
