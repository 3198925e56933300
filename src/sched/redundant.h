// Redundant scheduler (mptcp.org `redundant`): every segment is transmitted
// on all subflows with window space; the meta receiver keeps whichever copy
// arrives first and drops the rest. Trades aggregate goodput for latency —
// out-of-order delay collapses because the fast path always carries a copy.
// Included as the classic latency-oriented baseline beyond the paper's set.
#pragma once

#include "core/scheduler_util.h"
#include "mptcp/scheduler.h"

namespace mps {

class RedundantScheduler final : public Scheduler, public ArenaAllocated<RedundantScheduler> {
 public:
  Subflow* pick(Connection& conn) override {
    // Primary copy rides the fastest available subflow; Connection
    // duplicates onto the remaining subflows (duplicate_to_all()).
    return fastest_available(conn);
  }
  bool duplicate_to_all() const override { return true; }
  const char* name() const override { return "redundant"; }
};

}  // namespace mps
