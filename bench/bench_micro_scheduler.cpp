// Micro-benchmarks (google-benchmark): per-decision cost of each scheduler's
// pick() on a live mid-transfer connection, plus the simulator's raw event
// throughput. The kernel context for ECF is a per-packet decision, so its
// cost must stay within tens of nanoseconds of the default scheduler's.
#include <benchmark/benchmark.h>

#include "scenario/world.h"
#include "sched/registry.h"

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

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    int counter = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.after(Duration::micros(i), [&counter] { ++counter; });
    }
    state.ResumeTiming();
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
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
