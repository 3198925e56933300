// The default MPTCP path scheduler: among subflows with free CWND space,
// pick the one with the smallest RTT estimate (mptcp.org `default`).
#pragma once

#include "core/scheduler_util.h"
#include "mptcp/scheduler.h"

namespace mps {

class MinRttScheduler final : public Scheduler, public ArenaAllocated<MinRttScheduler> {
 public:
  // Picks are recorded by Connection via note_scheduled(); nothing to
  // explain here beyond the choice itself.
  Subflow* pick(Connection& conn) override { return fastest_available(conn); }
  const char* name() const override { return "default"; }
  // The choice reads only each subflow's can_accept() and RTT estimate, and
  // a commit to the picked subflow moves neither for any other subflow nor
  // its own RTT: the pick holds until the picked subflow's send queue fills.
  bool stable_pick() const override { return true; }
};

}  // namespace mps
