// FlightRecorder: the stack-wide observability root.
//
// One recorder is attached to a Simulator (Simulator::set_recorder) *before*
// the model objects are built; Subflow/Connection/Link/Scheduler then
// register their instruments and route trace events through it. With no
// recorder attached every instrumented site degrades to a null-pointer
// check, and the MPS_TRACE_EVENT macro can additionally be compiled out
// entirely with -DMPS_TRACE_DISABLED (CMake: -DMPS_TRACE_EVENTS=OFF).
//
// Three coordinated surfaces:
//  * metrics(): Counter/Gauge/Histogram registry (obs/metrics.h)
//  * event sink: typed JSONL-able trace records (obs/events.h)
//  * decision log: per-pick / per-wait scheduler records incl. ECF terms
//    (obs/decision.h), aggregated always and kept in full on request.
//
// summarize() prints the end-of-run report the bench/exp drivers attach.
//
// Thread confinement: a recorder is single-threaded state, owned by one
// simulation world. Parallel sweeps (exp/sweep.h) give every cell its own
// recorder and never share one across workers; nothing here is locked.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/decision.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "util/time.h"

namespace mps {

class FlightRecorder {
 public:
  // --- metrics --------------------------------------------------------------
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // --- structured events ----------------------------------------------------
  // Sink is borrowed; pass nullptr to stop tracing. With no sink, event
  // emission short-circuits before any field is materialized.
  void set_event_sink(EventSink* sink) { sink_ = sink; }
  EventSink* event_sink() const { return sink_; }
  bool tracing() const { return sink_ != nullptr; }

  void record_event(TimePoint t, EventType type, std::int64_t conn, std::int64_t subflow,
                    std::initializer_list<EventField> fields) {
    if (sink_ == nullptr) return;
    MPS_PROF_SCOPE(kRecorderEvent);
    ++events_recorded_;
    sink_->on_event(t, type, conn, subflow, fields.begin(), fields.size());
  }
  std::uint64_t events_recorded() const { return events_recorded_; }

  // --- scheduler decisions --------------------------------------------------
  struct TimedDecision {
    TimePoint t;
    SchedDecision d;
  };

  // Keep every decision in memory (tests / offline analysis). Off by
  // default: long runs make millions of picks; aggregates are always kept.
  void set_keep_decisions(bool keep) { keep_decisions_ = keep; }
  void record_decision(TimePoint t, const SchedDecision& d);
  const std::vector<TimedDecision>& decisions() const { return decisions_; }

  struct DecisionCounts {
    std::uint64_t picks = 0;
    std::uint64_t waits = 0;
    std::map<std::int64_t, std::uint64_t> picks_by_subflow;

    friend bool operator==(const DecisionCounts&, const DecisionCounts&) = default;
  };
  // Aggregated per (scheduler name, conn id).
  const std::map<std::pair<std::string, std::int64_t>, DecisionCounts>& decision_counts()
      const {
    return decision_counts_;
  }
  std::uint64_t total_picks() const;
  std::uint64_t total_waits() const;

  // --- snapshot-and-fork support (exp/snapshot.h) ---------------------------
  // Copies `src`'s whole state — metrics, decision log and aggregates, event
  // counter — and carries the borrowed sink pointer. Call *before* the fork's
  // model objects register instruments, so their handles resolve into the
  // copied storage. A fork that will run concurrently with other forks of
  // the same source should set_event_sink(nullptr): the sink is shared,
  // unsynchronized state.
  void clone_from(const FlightRecorder& src) {
    metrics_.clone_from(src.metrics_);
    sink_ = src.sink_;
    events_recorded_ = src.events_recorded_;
    keep_decisions_ = src.keep_decisions_;
    decisions_ = src.decisions_;
    decision_counts_ = src.decision_counts_;
  }

  // True when `other` recorded the same observable data: identical metrics
  // (instruments and values), event count, and decision aggregates. The
  // fork-vs-scratch tests assert this between a forked run's recorder and a
  // from-scratch run's.
  bool data_equals(const FlightRecorder& other) const {
    return metrics_.data_equals(other.metrics_) &&
           events_recorded_ == other.events_recorded_ &&
           decisions_.size() == other.decisions_.size() &&
           decision_counts_ == other.decision_counts_;
  }

  // --- report ---------------------------------------------------------------
  void summarize(std::ostream& os) const;

 private:
  MetricsRegistry metrics_;
  EventSink* sink_ = nullptr;
  std::uint64_t events_recorded_ = 0;

  bool keep_decisions_ = false;
  std::vector<TimedDecision> decisions_;
  std::map<std::pair<std::string, std::int64_t>, DecisionCounts> decision_counts_;
};

}  // namespace mps

// Emits a structured trace event through `sim`'s recorder. `sim` is any
// expression yielding a Simulator&; fields are brace-enclosed EventField
// initializers. The whole site compiles out under MPS_TRACE_DISABLED, and
// otherwise costs one pointer load + branch when no recorder (or no sink)
// is attached — field expressions are not evaluated in that case.
#ifndef MPS_TRACE_DISABLED
#define MPS_TRACE_EVENT(sim, type, conn, sf, ...)                                       \
  do {                                                                                  \
    ::mps::FlightRecorder* mps_trace_rec_ = (sim).recorder();                           \
    if (mps_trace_rec_ != nullptr && mps_trace_rec_->tracing()) {                       \
      mps_trace_rec_->record_event((sim).now(), (type), (conn), (sf), {__VA_ARGS__});   \
    }                                                                                   \
  } while (0)
#else
#define MPS_TRACE_EVENT(sim, type, conn, sf, ...) \
  do {                                            \
  } while (0)
#endif
