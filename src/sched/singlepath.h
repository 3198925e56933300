// Pins all traffic to one subflow; the single-path TCP baseline ("WiFi only"
// / "LTE only") used in examples and sanity tests.
//
// Under dynamic path management the pinned subflow can be torn down
// mid-connection. A single-path user survives a handover by reconnecting on
// whatever interface remains, so the scheduler mirrors that: when the pinned
// subflow is gone or draining, pick() fails over to the lowest-id
// schedulable subflow and re-pins there. (Lazy, in pick() rather than
// on_subflow_change(): during a break-before-make window the replacement
// subflow exists but is not yet established, and no change notification
// fires at establishment time.)
#pragma once

#include "mptcp/scheduler.h"
#include "mptcp/connection.h"
#include "tcp/subflow.h"

namespace mps {

class SinglePathScheduler final : public Scheduler, public ArenaAllocated<SinglePathScheduler> {
 public:
  explicit SinglePathScheduler(std::uint32_t subflow_id = 0) : subflow_id_(subflow_id) {}

  Subflow* pick(Connection& conn) override {
    Subflow* pinned = nullptr;
    for (Subflow* sf : conn.subflows()) {
      if (sf->id() == subflow_id_) {
        pinned = sf;
        break;
      }
    }
    if (pinned == nullptr || pinned->draining()) {
      pinned = nullptr;
      for (Subflow* sf : conn.subflows()) {
        if (sf->schedulable()) {
          pinned = sf;
          subflow_id_ = sf->id();
          break;
        }
      }
    }
    return pinned != nullptr && pinned->can_accept() ? pinned : nullptr;
  }
  const char* name() const override { return "single"; }

  void restore_from(const Scheduler& src) override {
    Scheduler::restore_from(src);
    subflow_id_ = static_cast<const SinglePathScheduler&>(src).subflow_id_;
  }

 private:
  std::uint32_t subflow_id_;  // re-pinned on failover, so forks must copy it
};

}  // namespace mps
