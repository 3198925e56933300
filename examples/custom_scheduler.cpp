// Writing your own MPTCP path scheduler against the library's extension
// point — the primary downstream use case of this codebase.
//
//   ./build/examples/custom_scheduler
//
// Implements a toy "latest-RTT threshold" scheduler in ~20 lines, runs it
// against ECF and the default on a heterogeneous pair, and prints the
// comparison. See src/mptcp/scheduler.h for the interface contract.
#include <cstdio>
#include <memory>

#include "app/http.h"
#include "core/scheduler_util.h"
#include "mptcp/scheduler.h"
#include "scenario/world.h"
#include "sched/registry.h"

namespace {

using namespace mps;

// Toy policy: use any subflow whose RTT estimate is within 4x of the best
// subflow's; otherwise wait for the fast one. (Simpler than ECF: ignores
// CWND and backlog, so it waits too much with plenty of data and too little
// near transfer tails.)
class RttThresholdScheduler final : public Scheduler {
 public:
  Subflow* pick(Connection& conn) override {
    Subflow* fastest = fastest_established(conn);
    if (fastest == nullptr) return nullptr;
    if (fastest->can_accept()) return fastest;
    Subflow* next = fastest_available(conn, fastest);
    if (next == nullptr) return nullptr;
    const bool close_enough =
        next->rtt_estimate().to_seconds() < 4.0 * fastest->rtt_estimate().to_seconds();
    return close_enough ? next : nullptr;
  }
  const char* name() const override { return "rtt-threshold"; }
};

double run_one(const SchedulerFactory& factory, const char* label) {
  WorldConfig tb;
  tb.paths = {wifi_profile(Rate::mbps(0.7)), lte_profile(Rate::mbps(8.6))};
  World bed(tb);
  auto conn = bed.make_connection(factory);
  HttpExchange http(bed.sim(), *conn, bed.request_delay());

  double completion = 0.0;
  http.get(4 * 1024 * 1024, [&](const ObjectResult& r) {
    completion = (r.completed - r.requested).to_seconds();
    bed.sim().request_stop();
  });
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(300));
  std::printf("%-14s 4 MiB in %6.2f s (wifi %5.1f%%, ooo p99 %6.1f ms)\n", label, completion,
              100.0 * conn->subflows()[0]->stats().bytes_sent /
                  (conn->subflows()[0]->stats().bytes_sent +
                   conn->subflows()[1]->stats().bytes_sent),
              conn->ooo_delay().quantile(0.99) * 1e3);
  return completion;
}

}  // namespace

int main() {
  run_one(scheduler_factory("default"), "default");
  run_one([] { return std::make_unique<RttThresholdScheduler>(); }, "rtt-threshold");
  run_one(scheduler_factory("ecf"), "ecf");
  return 0;
}
