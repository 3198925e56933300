// DAPS — Delay-Aware Packet Scheduling (Kuhn, Lochin, Mifdaoui, Sarwar,
// Mehani, Boreli, IEEE ICC 2014).
//
// DAPS pre-computes a transmission schedule from the subflows' RTT ratio
// and CWNDs: over one period (the largest RTT), subflow i is planned
// cwnd_i * rtt_max / rtt_i segment slots, interleaved by expected departure
// time — traffic "inversely proportional to RTT" in the ECF paper's words.
// The plan is then followed strictly: if the planned subflow is momentarily
// CWND-limited, DAPS waits for it rather than substituting another path.
//
// Both properties the ECF paper criticizes follow from this design: the
// schedule keeps feeding the slow subflow its proportional share no matter
// how little data remains in the send buffer, and a stale RTT estimate
// locks in a bad plan until the period rolls over.
#pragma once

#include <cstdint>
#include <vector>

#include "core/scheduler_util.h"
#include "mptcp/scheduler.h"

namespace mps {

class DapsScheduler final : public Scheduler, public ArenaAllocated<DapsScheduler> {
 public:
  Subflow* pick(Connection& conn) override;
  const char* name() const override { return "daps"; }
  void reset() override {
    plan_.clear();
    pos_ = 0;
  }

  // A subflow joined, started draining, or was finalized: the departure
  // plan's slot mix (and possibly its subflow ids) is stale — drop it and
  // re-plan from the surviving subflows at the next pick. Keeping the old
  // plan would strictly wait on a subflow that can no longer accept.
  void on_subflow_change(Connection& conn) override {
    static_cast<void>(conn);
    plan_.clear();
    pos_ = 0;
  }

  void restore_from(const Scheduler& src) override {
    Scheduler::restore_from(src);
    const auto& other = static_cast<const DapsScheduler&>(src);
    plan_ = other.plan_;
    pos_ = other.pos_;
  }

 private:
  struct Slot {
    double departure;  // expected departure offset within the period
    std::uint32_t subflow_id;
  };

  void rebuild_plan(Connection& conn);

  std::vector<std::uint32_t> plan_;  // subflow ids in planned departure order
  std::size_t pos_ = 0;
  std::vector<Slot> slots_scratch_;  // reused across plan rebuilds
};

}  // namespace mps
