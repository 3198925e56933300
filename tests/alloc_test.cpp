// Heap-allocation budget of a flow's life under churn.
//
// The binary replaces the global operator new with a counting one, so it is
// built only without MPS_PROF (which owns operator new itself) and without
// the sanitizers (whose allocators must see every call).
//
// A 1k-flow crowd cell (the crowd_10k benchmark shape scaled to 1k flows,
// seed 1) is run through the traffic engine; every allocation from start()
// through collect() and the destruction of engine and world is counted and
// divided by the flows started. Per flow that covers constructing the
// Connection, its subflows, receivers, scheduler and HttpExchange, growing
// their queues while it runs, and tearing it all down.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "exp/download.h"
#include "mptcp/connection.h"
#include "net/path.h"
#include "scenario/world.h"
#include "traffic/engine.h"

namespace {

bool g_counting = false;
std::uint64_t g_allocations = 0;

void* counted(std::size_t n, std::size_t align) {
  if (g_counting) ++g_allocations;
  if (n == 0) n = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (n + align - 1) / align * align)
                : std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted(n, 0); }
void* operator new[](std::size_t n) { return counted(n, 0); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted(n, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace mps {
namespace {

// The crowd_10k benchmark cell at `flows` flows: capacity scaled per flow
// (~24 kbps on each path), 5 %/s Poisson churn, exponential 256 KB sizes.
ScenarioSpec crowd_cell(std::int64_t flows, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "crowd_" + std::to_string(flows);
  const double mbps = static_cast<double>(flows) * 0.024;
  spec.paths = {wifi_path(mbps), lte_path(mbps)};
  spec.scheduler = "default";
  spec.traffic.enabled = true;
  spec.traffic.flows = flows;
  spec.traffic.arrival_rate_per_s = static_cast<double>(flows) * 0.05;
  spec.traffic.max_arrivals = std::max<std::int64_t>(flows / 10, 16);
  spec.traffic.flow_bytes = 256 * 1024;
  spec.traffic.size_dist = "exponential";
  spec.traffic.duration_s = 1.0;
  spec.seed = seed;
  return spec;
}

TEST(AllocBudget, CrowdCellStaysUnderEightAllocationsPerFlow) {
  const ScenarioSpec spec = crowd_cell(1000, 1);
  TrafficResult res;
  {
    WorldBuilder builder(spec);
    std::unique_ptr<World> world = builder.build();
    auto engine = std::make_unique<TrafficEngine>(*world, builder.spec());
    g_allocations = 0;
    g_counting = true;
    engine->start();
    world->sim().run_until(engine->end_time());
    engine->finish();
    res = engine->collect();
    engine.reset();
    world.reset();
    g_counting = false;
  }
  ASSERT_GT(res.started, 1000u);
  const double per_flow =
      static_cast<double>(g_allocations) / static_cast<double>(res.started);
  std::printf("alloc_test: %llu allocations over %zu started flows = %.2f per flow\n",
              static_cast<unsigned long long>(g_allocations), res.started, per_flow);
  RecordProperty("allocations_per_flow", std::to_string(per_flow));
  EXPECT_LE(per_flow, 8.0);
}

// Once a one-connection download is warm (queues, pools and the event arena
// grown), delivering a packet allocates nothing: links carry pool slots,
// events reuse queue slots, and the per-packet hooks are inline callbacks.
// The only allocation a window may see is a doubling of the connection's
// out-of-order-delay sample vector, which keeps one sample per delivered
// segment by design: amortized O(log n) over a run, never per packet. The
// window below (6,385 packets past 20 s) crosses exactly one such doubling.
TEST(AllocBudget, WarmDownloadAllocatesNothingPerDeliveredPacket) {
  DownloadParams p;
  p.wifi_mbps = 10.0;
  p.lte_mbps = 10.0;
  p.bytes = std::uint64_t{1} << 30;  // still running when the window closes
  DownloadRun run(p);
  run.start();
  auto delivered = [&run] {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < run.world().path_count(); ++i) {
      n += run.world().path(i).down().stats().packets_delivered;
      n += run.world().path(i).up().stats().packets_delivered;
    }
    return n;
  };
  run.run_to(TimePoint::origin() + Duration::seconds(20));
  const std::uint64_t before = delivered();
  const std::size_t samples_before = run.connection().ooo_delay().count();
  g_allocations = 0;
  g_counting = true;
  run.run_to(TimePoint::origin() + Duration::seconds(22));
  g_counting = false;
  const std::uint64_t packets = delivered() - before;
  ASSERT_FALSE(run.done());
  ASSERT_GT(packets, 1000u);
  // Fewer new samples than held ones: the vector can double at most once.
  ASSERT_LT(run.connection().ooo_delay().count() - samples_before, samples_before);
  std::printf("alloc_test: %llu allocations over %llu delivered packets once warm\n",
              static_cast<unsigned long long>(g_allocations),
              static_cast<unsigned long long>(packets));
  EXPECT_LE(g_allocations, 1u);
}

}  // namespace
}  // namespace mps
