// Tests for the contiguous hot-path containers (util/ring.h), the SBO
// callback (sim/callback.h), and the link packet pool (net/packet_pool.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "net/packet_pool.h"
#include "sim/callback.h"
#include "util/ring.h"

namespace mps {
namespace {

std::uint64_t g_lcg = 42;
std::uint64_t Rnd(std::uint64_t mod) {
  g_lcg = g_lcg * 6364136223846793005ULL + 1442695040888963407ULL;
  return (g_lcg >> 33) % mod;
}

TEST(RingDequeTest, FifoOrderAcrossGrowth) {
  RingDeque<int> q;
  for (int i = 0; i < 100; ++i) q.push_back(i);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(q.front(), i);
    ASSERT_EQ(q.at(0), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(RingDequeTest, WrapsWhenHeadAdvances) {
  RingDeque<int> q;
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    const std::uint64_t n = Rnd(5);
    for (std::uint64_t i = 0; i < n; ++i) q.push_back(next_in++);
    while (q.size() > Rnd(7)) {
      ASSERT_EQ(q.front(), next_out++);
      q.pop_front();
    }
    for (std::size_t i = 0; i < q.size(); ++i) {
      ASSERT_EQ(q.at(i), next_out + static_cast<int>(i));
    }
  }
}

TEST(RingDequeTest, PopReleasesPayload) {
  RingDeque<std::shared_ptr<int>> q;
  auto p = std::make_shared<int>(7);
  q.push_back(p);
  EXPECT_EQ(p.use_count(), 2);
  q.pop_front();
  // pop_front must drop the stored copy immediately, not on overwrite.
  EXPECT_EQ(p.use_count(), 1);
}

// Counts live instances, so the slots a container allocated show up, and
// every construction, so a copy that builds slots it then throws away does.
struct Counted {
  static inline int alive = 0;
  static inline int constructions = 0;
  int v = 0;
  Counted() { ++alive, ++constructions; }
  explicit Counted(int x) : v(x) { ++alive, ++constructions; }
  Counted(const Counted& o) : v(o.v) { ++alive, ++constructions; }
  Counted& operator=(const Counted&) = default;
  ~Counted() { --alive; }
};

// A fork copies rings: the copy must hold the live elements only, not the
// source's high-water capacity.
TEST(RingDequeTest, CopyAllocatesForLiveElementsOnly) {
  RingDeque<Counted> q;
  for (int i = 0; i < 1000; ++i) q.push_back(Counted(i));
  for (int i = 0; i < 997; ++i) q.pop_front();
  const int before = Counted::alive;
  RingDeque<Counted> copy(q);
  EXPECT_EQ(Counted::alive - before, 4);  // 3 live elements, 4 slots
  RingDeque<Counted> assigned;
  for (int i = 0; i < 40; ++i) assigned.push_back(Counted(-i));
  assigned = q;
  for (const RingDeque<Counted>* c : {&copy, &assigned}) {
    ASSERT_EQ(c->size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(c->at(i).v, 997 + static_cast<int>(i));
  }
  copy.push_back(Counted(5000));  // the copy is independent of its source
  EXPECT_EQ(q.size(), 3u);
}

TEST(SeqRingTest, CopyKeepsKeysAndAllocatesForLiveElementsOnly) {
  SeqRing<Counted> r;
  r.reset(100);
  for (int i = 0; i < 500; ++i) r.push_back(Counted(i));
  for (int i = 0; i < 495; ++i) r.pop_front();
  const int before = Counted::alive;
  SeqRing<Counted> copy(r);
  EXPECT_EQ(Counted::alive - before, 8);  // 5 live elements, 8 slots
  SeqRing<Counted> assigned;
  assigned = r;
  for (const SeqRing<Counted>* c : {&copy, &assigned}) {
    ASSERT_EQ(c->lo(), 595u);
    ASSERT_EQ(c->hi(), 600u);
    for (std::uint64_t s = 595; s != 600; ++s) EXPECT_EQ((*c)[s].v, static_cast<int>(s - 100));
  }
}

// A copy builds its final buffer in one allocation: a wrapped 3-element
// RingDeque constructs exactly its 4 slots (appending one by one built 2,
// then 4, plus a temporary per element), keeps FIFO order from slot 0, and
// a copy of an empty ring allocates nothing.
TEST(RingDequeTest, CopyConstructsOnlyItsFinalSlots) {
  RingDeque<Counted> q;
  for (int i = 0; i < 8; ++i) q.push_back(Counted(i));
  for (int i = 0; i < 6; ++i) q.pop_front();
  q.push_back(Counted(8));  // 6, 7, 8 in slots 6, 7, 0 of 8
  const int before = Counted::constructions;
  const RingDeque<Counted> copy(q);
  EXPECT_EQ(Counted::constructions - before, 4);
  ASSERT_EQ(copy.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(copy.at(i).v, 6 + static_cast<int>(i));

  const RingDeque<Counted> empty;
  const int before_empty = Counted::constructions;
  const RingDeque<Counted> empty_copy(empty);
  EXPECT_EQ(Counted::constructions - before_empty, 0);
  EXPECT_TRUE(empty_copy.empty());
}

// SeqRing: `lo` not aligned to the capacity, so the live keys wrap the
// copy's buffer; the copy constructs its 4 slots and nothing else.
TEST(SeqRingTest, CopyConstructsOnlyItsFinalSlots) {
  SeqRing<Counted> r;
  r.reset(6);
  for (int i = 0; i < 3; ++i) r.push_back(Counted(i));  // keys 6, 7, 8 -> slots 2, 3, 0
  const int before = Counted::constructions;
  const SeqRing<Counted> copy(r);
  EXPECT_EQ(Counted::constructions - before, 4);
  ASSERT_EQ(copy.lo(), 6u);
  ASSERT_EQ(copy.hi(), 9u);
  for (std::uint64_t s = 6; s != 9; ++s) EXPECT_EQ(copy[s].v, static_cast<int>(s - 6));

  SeqRing<Counted> empty;
  empty.reset(41);
  const int before_empty = Counted::constructions;
  const SeqRing<Counted> empty_copy(empty);
  EXPECT_EQ(Counted::constructions - before_empty, 0);
  EXPECT_EQ(empty_copy.lo(), 41u);
  EXPECT_TRUE(empty_copy.empty());
}

TEST(SeqRingTest, DenseRangeSemantics) {
  SeqRing<int> r;
  r.reset(1000);
  EXPECT_EQ(r.lo(), 1000u);
  EXPECT_EQ(r.hi(), 1000u);
  for (int i = 0; i < 50; ++i) r.push_back(i);
  EXPECT_EQ(r.hi(), 1050u);
  for (std::uint64_t s = r.lo(); s != r.hi(); ++s) {
    ASSERT_EQ(r[s], static_cast<int>(s - 1000));
  }
  r.pop_front();
  r.pop_front();
  EXPECT_EQ(r.lo(), 1002u);
  EXPECT_EQ(r.front(), 2);
  r[1002] = 99;
  EXPECT_EQ(r.front(), 99);
}

TEST(SeqRingTest, SlidingChurnAcrossGrowth) {
  SeqRing<std::uint64_t> r;
  std::uint64_t lo = 0, hi = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::uint64_t pushes = Rnd(6);
    for (std::uint64_t i = 0; i < pushes; ++i) r.push_back(hi++);
    const std::uint64_t pops = r.empty() ? 0 : Rnd(r.size() + 1);
    for (std::uint64_t i = 0; i < pops; ++i) {
      ASSERT_EQ(r.front(), lo);
      r.pop_front();
      ++lo;
    }
    ASSERT_EQ(r.lo(), lo);
    ASSERT_EQ(r.hi(), hi);
    for (std::uint64_t s = lo; s != hi; ++s) ASSERT_EQ(r[s], s);
  }
}

TEST(SeqWindowTest, MatchesStdMapUnderChurn) {
  SeqWindow<int> w;
  std::map<std::uint64_t, int> model;
  std::uint64_t base = 0;
  for (int round = 0; round < 4000; ++round) {
    const std::uint64_t op = Rnd(10);
    if (op < 5) {
      const std::uint64_t key = base + Rnd(200);
      const int val = static_cast<int>(Rnd(1'000'000));
      const bool inserted = w.insert(key, val);
      ASSERT_EQ(inserted, model.emplace(key, val).second);
    } else if (op < 8 && !model.empty()) {
      // Mostly erase the min (drain pattern), sometimes a random key.
      auto it = model.begin();
      if (Rnd(3) == 0) it = std::next(it, static_cast<std::ptrdiff_t>(Rnd(model.size())));
      ASSERT_TRUE(w.contains(it->first));
      w.erase(it->first);
      model.erase(it);
      base += Rnd(20);  // slide the window forward
    } else {
      const std::uint64_t probe = base + Rnd(250);
      const auto it = model.find(probe);
      ASSERT_EQ(w.contains(probe), it != model.end());
      if (it != model.end()) {
        ASSERT_EQ(*w.find(probe), it->second);
      }
      const auto after = model.lower_bound(probe);
      ASSERT_EQ(w.first_at_or_after(probe),
                after == model.end() ? SeqWindow<int>::kNone : after->first);
    }
    ASSERT_EQ(w.size(), model.size());
    ASSERT_EQ(w.min_key(),
              model.empty() ? SeqWindow<int>::kNone : model.begin()->first);
    ASSERT_EQ(w.max_key(),
              model.empty() ? SeqWindow<int>::kNone : model.rbegin()->first);
  }
}

TEST(FlatSeqMapTest, MatchesStdMapUnderChurn) {
  FlatSeqMap<int> m;
  std::map<std::uint64_t, int> model;
  std::uint64_t drained_to = 0;
  for (int round = 0; round < 4000; ++round) {
    const std::uint64_t op = Rnd(10);
    if (op < 6) {
      const std::uint64_t key = drained_to + Rnd(500);
      const int val = static_cast<int>(Rnd(1'000'000));
      const auto [slot, inserted] = m.try_emplace(key, val);
      const auto [it, minserted] = model.emplace(key, val);
      ASSERT_EQ(inserted, minserted);
      ASSERT_EQ(*slot, it->second);
    } else if (!model.empty()) {
      ASSERT_EQ(m.front_key(), model.begin()->first);
      ASSERT_EQ(m.front_value(), model.begin()->second);
      drained_to = model.begin()->first;
      m.pop_front();
      model.erase(model.begin());
    }
    ASSERT_EQ(m.size(), model.size());
    std::size_t i = 0;
    for (const auto& [k, v] : model) {
      ASSERT_EQ(m.at(i).key, k);
      ASSERT_EQ(m.at(i).value, v);
      ++i;
    }
  }
}

TEST(CallbackTest, InlineCaptureNoAllocation) {
  // The kernel Callback holds 24 inline bytes: a pointer plus two scalars,
  // the largest closure the event loop schedules.
  struct Big {
    std::uint64_t a[2];
  };
  Big big{{1, 2}};
  std::uint64_t sum = 0;
  static_assert(sizeof(big) + sizeof(&sum) <= Callback::kInlineBytes);
  Callback cb([big, &sum] {
    for (const std::uint64_t v : big.a) sum += v;
  });
  cb();
  EXPECT_EQ(sum, 3u);
}

TEST(CallbackTest, WideSboVariantHoldsFortyBytesInline) {
  // Link::DeliverFn and other per-packet seams keep the 48-byte default.
  struct Big {
    std::uint64_t a[5];
  };
  static_assert(sizeof(Big) == 40);
  static_assert(BasicCallback<void()>::kInlineBytes == 48);
  Big big{{1, 2, 3, 4, 5}};
  std::uint64_t sum = 0;
  BasicCallback<void()> cb([big, &sum] {
    for (const std::uint64_t v : big.a) sum += v;
  });
  cb();
  EXPECT_EQ(sum, 15u);
}

TEST(CallbackTest, HeapFallbackForOversizeCapture) {
  struct Huge {
    std::uint64_t a[16];
  };
  Huge huge{};
  huge.a[15] = 9;
  std::uint64_t got = 0;
  Callback cb([huge, &got] { got = huge.a[15]; });
  Callback moved = std::move(cb);
  moved();
  EXPECT_EQ(got, 9u);
}

TEST(CallbackTest, MoveTransfersOwnershipAndReset) {
  auto count = std::make_shared<int>(0);
  Callback cb([count] { ++*count; });
  EXPECT_EQ(count.use_count(), 2);
  Callback moved = std::move(cb);
  moved();
  EXPECT_EQ(*count, 1);
  moved.reset();
  EXPECT_EQ(count.use_count(), 1);  // captured state destroyed on reset
}

TEST(CallbackTest, ReturnValueAndArguments) {
  BasicCallback<int(int, int)> add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(2, 3), 5);
}

TEST(PacketPoolTest, RecyclesBuffers) {
  PacketPool pool;
  Packet* a = pool.acquire();
  Packet* b = pool.acquire();
  EXPECT_NE(a, b);
  pool.release(a);
  Packet* c = pool.acquire();
  EXPECT_EQ(c, a);  // LIFO reuse of the freed buffer
  pool.release(b);
  pool.release(c);
  // Steady-state churn must not grow capacity.
  const std::size_t cap = pool.capacity();
  for (int i = 0; i < 1000; ++i) {
    Packet* p = pool.acquire();
    pool.release(p);
  }
  EXPECT_EQ(pool.capacity(), cap);
}

TEST(PacketPoolTest, DistinctLiveBuffers) {
  PacketPool pool;
  std::set<Packet*> live;
  std::vector<Packet*> order;
  for (int i = 0; i < 200; ++i) {
    Packet* p = pool.acquire();
    ASSERT_TRUE(live.insert(p).second) << "pool handed out a live buffer twice";
    order.push_back(p);
  }
  for (Packet* p : order) pool.release(p);
}

}  // namespace
}  // namespace mps
