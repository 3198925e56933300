#include "mptcp/scheduler.h"

#include "obs/recorder.h"
#include "sim/simulator.h"

namespace mps {

void Scheduler::bind(Simulator& sim, std::uint32_t conn_id) {
  sim_ = &sim;
  recorder_ = sim.recorder();
  conn_id_ = static_cast<std::int64_t>(conn_id);
  explain_ = recorder_ != nullptr;
}

MPS_SCHED_COLD void Scheduler::note_pick(std::int64_t subflow) const {
  SchedDecision d;
  d.kind = SchedDecision::Kind::kPick;
  d.subflow = subflow;
  note_decision(d);
}

MPS_SCHED_COLD void Scheduler::note_wait(std::int64_t subflow) const {
  SchedDecision d;
  d.kind = SchedDecision::Kind::kWait;
  d.subflow = subflow;
  note_decision(d);
}

MPS_SCHED_COLD void Scheduler::note_scheduled_slow(std::int64_t subflow) const {
  if (last_terms_pick_ == subflow) {
    last_terms_pick_ = -1;  // pick() already recorded this one, with terms
    return;
  }
  last_terms_pick_ = -1;
  note_pick(subflow);
}

void Scheduler::note_decision(SchedDecision d) const {
  d.scheduler = name();
  if (d.conn < 0) d.conn = conn_id_;
  if (d.kind == SchedDecision::Kind::kPick && d.has_ecf_terms) last_terms_pick_ = d.subflow;
  const TimePoint t = sim_ != nullptr ? sim_->now() : TimePoint::origin();
  if (recorder_ != nullptr) recorder_->record_decision(t, d);
}

}  // namespace mps
