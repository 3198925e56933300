// Micro-benchmarks (google-benchmark): per-decision cost of each scheduler's
// pick() on a live mid-transfer connection, plus the event kernel's
// throughput under timer churn. The kernel context for ECF is a per-packet
// decision, so its cost must stay within tens of nanoseconds of the default
// scheduler's.
#include <benchmark/benchmark.h>

#include "scenario/world.h"
#include "sched/registry.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace mps {
namespace {

// A connection frozen mid-transfer: both subflows have RTT estimates and
// partially used windows, so every scheduler exercises its full logic.
struct MidTransferRig {
  explicit MidTransferRig(const std::string& sched) {
    WorldConfig tb;
    tb.paths = {wifi_profile(Rate::mbps(0.7)), lte_profile(Rate::mbps(8.6))};
    bed = std::make_unique<World>(tb);
    conn = bed->make_connection(scheduler_factory(sched));
    conn->send(6'000'000);
    bed->sim().run_until(TimePoint::origin() + Duration::seconds(2));
  }
  std::unique_ptr<World> bed;
  std::unique_ptr<Connection> conn;
};

void BM_SchedulerPick(benchmark::State& state, const std::string& sched) {
  MidTransferRig rig(sched);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.conn->scheduler().pick(*rig.conn));
  }
}

BENCHMARK_CAPTURE(BM_SchedulerPick, default_sched, std::string("default"));
BENCHMARK_CAPTURE(BM_SchedulerPick, ecf, std::string("ecf"));
BENCHMARK_CAPTURE(BM_SchedulerPick, blest, std::string("blest"));
BENCHMARK_CAPTURE(BM_SchedulerPick, daps, std::string("daps"));
BENCHMARK_CAPTURE(BM_SchedulerPick, rr, std::string("rr"));

// The event kernel under the stack's dominant churn: each iteration pops and
// fires one event, schedules a near-future replacement (a link transmission,
// 50 us..1 ms out) and restarts one of the far-future timers by cancel +
// reschedule (the per-ACK RTO pattern), with 1,024 transmissions and 256
// timers live. Closures capture three words, the typical size across the
// stack.
void BM_SimulatorEventThroughput(benchmark::State& state) {
  constexpr std::size_t kLiveTransmissions = 1024;
  constexpr std::size_t kLiveTimers = 256;
  EventQueue q;
  std::uint64_t sink = 0;
  std::int64_t now_ns = 0;
  std::uint64_t ticks = 0;
  Rng rng(42);
  auto payload = [&sink, &now_ns, &ticks] {
    sink += static_cast<std::uint64_t>(now_ns) + ++ticks;
  };
  auto at = [](std::int64_t ns, std::uint64_t jitter) {
    return TimePoint::from_ns(ns + static_cast<std::int64_t>(jitter));
  };
  std::vector<EventId> timer_ids(kLiveTimers);
  for (std::size_t i = 0; i < kLiveTransmissions; ++i) {
    q.schedule(at(1, rng.uniform_int(1'000'000)), payload);
  }
  for (EventId& id : timer_ids) {
    id = q.schedule(at(200'000'000, rng.uniform_int(1'000'000)), payload);
  }
  for (auto _ : state) {
    auto fired = q.pop();
    now_ns = fired.when.ns();
    fired.fn();
    q.schedule(at(now_ns + 50'000, rng.uniform_int(950'000)), payload);
    EventId& timer = timer_ids[rng.uniform_int(kLiveTimers)];
    q.cancel(timer);
    timer = q.schedule(at(now_ns + 200'000'000, 0), payload);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_EndToEndTransferSimulation(benchmark::State& state) {
  // Wall cost of simulating a full 1 MB two-path transfer.
  for (auto _ : state) {
    WorldConfig tb;
    tb.paths = {wifi_profile(Rate::mbps(2)), lte_profile(Rate::mbps(8))};
    World bed(tb);
    auto conn = bed.make_connection(scheduler_factory("ecf"));
    conn->send(1'000'000);
    bed.sim().run_until(TimePoint::origin() + Duration::seconds(30));
    benchmark::DoNotOptimize(conn->delivered_bytes());
  }
}
BENCHMARK(BM_EndToEndTransferSimulation)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mps

BENCHMARK_MAIN();
