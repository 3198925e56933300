// QAware — cross-layer queue-aware scheduling (after Shailendra et al.,
// arXiv 1808.04390 / 1711.07565): pick the subflow whose next segment is
// expected to *drain* first, estimated from the NIC/device queue occupancy
// plus the path's RTT, instead of from RTT alone.
//
// For each subflow that can accept a segment the score is
//
//   wait  = (queue_depth + busy) * serialization_time(segment)   [device queue]
//   drain = wait + serialization_time(segment) + rtt_estimate / 2
//
// i.e. time for the segment to clear the local queue, serialize, and reach
// the receiver over the one-way (RTT/2) path. The smallest score wins; ties
// break toward the lowest subflow id (the live list is id-ascending).
//
// Oracle caveat: `Link::queue_depth()` is the simulator's ground-truth
// bottleneck occupancy. The real QAware reads the local NIC ring via
// cross-layer hooks — a *local* approximation — and cannot see the
// bottleneck queue when it sits deeper in the network, so this scheduler is
// an upper bound on what queue-awareness buys, not a kernel-faithful
// implementation (see DESIGN.md).
//
// QAware keeps no learned state: restore_from/on_subflow_change need only
// the base-class behavior, which makes it trivially fork- and churn-safe.
#pragma once

#include "mptcp/connection.h"
#include "mptcp/scheduler.h"
#include "net/packet.h"
#include "tcp/subflow.h"

namespace mps {

class QAwareScheduler final : public Scheduler, public ArenaAllocated<QAwareScheduler> {
 public:
  Subflow* pick(Connection& conn) override {
    Subflow* best = nullptr;
    double best_score = 0.0;
    for (Subflow* sf : conn.subflows()) {
      if (!sf->can_accept()) continue;
      const double score = drain_score(*sf, conn.mss());
      if (best == nullptr || score < best_score) {
        best = sf;
        best_score = score;
      }
    }
    return best;
  }

  const char* name() const override { return "qaware"; }

  // The pure per-subflow estimate, exposed for direct testing.
  static double drain_score(Subflow& sf, std::uint32_t mss) {
    const Link& down = sf.path().down();
    const double serialize_s =
        down.serialization_time(mss + kHeaderBytes).to_seconds();
    const double queued =
        static_cast<double>(down.queue_depth()) + (down.busy() ? 1.0 : 0.0);
    return (queued + 1.0) * serialize_s + sf.rtt_estimate().to_seconds() / 2.0;
  }
};

}  // namespace mps
