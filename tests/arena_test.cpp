// Tests for the slab arena (traffic/arena.h): block distinctness, free-list
// recycling, and end-to-end reuse of Connection/Subflow/SubflowReceiver
// slots across churned connections. The churn test also runs under the ASan
// suite, where the pool's poisoning keeps stale-pointer reuse detectable.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "mptcp/connection.h"
#include "scenario/world.h"
#include "sched/registry.h"
#include "test_util.h"
#include "traffic/arena.h"

namespace mps {
namespace {

TEST(SlabPoolTest, LiveBlocksAreDistinctAndWritable) {
  SlabPool pool(/*block_size=*/48, /*block_align=*/16, /*blocks_per_slab=*/8);
  std::set<void*> live;
  std::vector<void*> order;
  for (int i = 0; i < 100; ++i) {
    void* p = pool.allocate();
    ASSERT_NE(p, nullptr);
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
    ASSERT_TRUE(live.insert(p).second) << "pool handed out a live block twice";
    std::memset(p, i & 0xff, pool.block_size());
    order.push_back(p);
  }
  EXPECT_EQ(pool.stats().outstanding, 100u);
  EXPECT_EQ(pool.stats().slabs, 13u);  // ceil(100 / 8)
  for (void* p : order) pool.deallocate(p);
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST(SlabPoolTest, FreeListRecyclesLifo) {
  SlabPool pool(/*block_size=*/64, /*block_align=*/8);
  void* a = pool.allocate();
  void* b = pool.allocate();
  pool.deallocate(b);
  pool.deallocate(a);
  EXPECT_EQ(pool.allocate(), a);
  EXPECT_EQ(pool.allocate(), b);
  const SlabPool::Stats st = pool.stats();
  EXPECT_EQ(st.allocated, 4u);
  // b came off the free list carved by the first slab, then both LIFO reuses.
  EXPECT_EQ(st.reused, 3u);
  EXPECT_EQ(st.slabs, 1u);
}

TEST(ArenaTest, ConnectionChurnReusesSlotsWithoutAliasing) {
  const SlabPool::Stats conn_before = slab_pool_for<Connection>().stats();
  const SlabPool::Stats sf_before = slab_pool_for<Subflow>().stats();
  const SlabPool::Stats rx_before = slab_pool_for<SubflowReceiver>().stats();

  WorldConfig tb = two_path_config(1.0, 10.0);
  World bed(tb);

  // Overlapping live connections must occupy distinct arena slots...
  std::set<const Connection*> live_ptrs;
  std::vector<std::unique_ptr<Connection>> live;
  for (int i = 0; i < 8; ++i) {
    live.push_back(bed.make_connection(scheduler_factory("default")));
    ASSERT_TRUE(live_ptrs.insert(live.back().get()).second)
        << "two live connections share an arena slot";
  }
  {
    const SlabPool::Stats st = slab_pool_for<Connection>().stats();
    EXPECT_EQ(st.outstanding - conn_before.outstanding, 8u);
  }
  live.clear();

  // ...and steady-state churn must recycle them instead of growing the pool.
  const SlabPool::Stats conn_mid = slab_pool_for<Connection>().stats();
  for (int i = 0; i < 100; ++i) {
    auto conn = bed.make_connection(scheduler_factory("default"));
    conn->send(10'000);
    bed.sim().run_until(bed.sim().now() + Duration::millis(50));
  }
  const SlabPool::Stats conn_after = slab_pool_for<Connection>().stats();
  const SlabPool::Stats sf_after = slab_pool_for<Subflow>().stats();
  const SlabPool::Stats rx_after = slab_pool_for<SubflowReceiver>().stats();
  EXPECT_EQ(conn_after.outstanding, conn_mid.outstanding);
  EXPECT_EQ(conn_after.slabs, conn_mid.slabs) << "churn grew the Connection pool";
  EXPECT_GE(conn_after.reused - conn_before.reused, 100u);
  EXPECT_GE(sf_after.reused - sf_before.reused, 100u);
  EXPECT_GE(rx_after.reused - rx_before.reused, 100u);
  EXPECT_EQ(sf_after.outstanding, sf_before.outstanding);
  EXPECT_EQ(rx_after.outstanding, rx_before.outstanding);
}

}  // namespace
}  // namespace mps
