// Round-robin scheduler (mptcp.org `rr`): cycles through available subflows
// regardless of RTT. Included as an extra baseline and for tests.
//
// The rotation cursor is the *id* of the last subflow picked, not an index
// into conn.subflows(): the live list compacts when a subflow is torn down
// mid-connection (mptcp/path_manager.h), so a stored index would skew onto
// a different subflow — or past the end — after churn. Ids are stable and
// ascending in the live list, which makes "first subflow with a larger id"
// the exact successor the old index cursor meant.
#pragma once

#include <cstdint>

#include "mptcp/scheduler.h"
#include "mptcp/connection.h"
#include "tcp/subflow.h"

namespace mps {

class RoundRobinScheduler final : public Scheduler, public ArenaAllocated<RoundRobinScheduler> {
 public:
  Subflow* pick(Connection& conn) override {
    auto& subflows = conn.subflows();
    const std::size_t n = subflows.size();
    std::size_t start = 0;
    while (start < n && last_id_ >= 0 &&
           subflows[start]->id() <= static_cast<std::uint32_t>(last_id_)) {
      ++start;
    }
    for (std::size_t i = 0; i < n; ++i) {
      Subflow* sf = subflows[(start + i) % n];
      if (sf->can_accept()) {
        last_id_ = sf->id();
        return sf;
      }
    }
    return nullptr;
  }
  const char* name() const override { return "rr"; }
  void reset() override { last_id_ = -1; }

  void restore_from(const Scheduler& src) override {
    Scheduler::restore_from(src);
    last_id_ = static_cast<const RoundRobinScheduler&>(src).last_id_;
  }

 private:
  std::int64_t last_id_ = -1;  // id of the last subflow picked; -1 = none yet
};

}  // namespace mps
