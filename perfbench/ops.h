// The benchmark's ops: one prepared input per Cell, executed through the
// simulator's public API exactly as a user drives it, with every layer timed
// from outside by lapping a clock between consecutive public calls.
//
// Nothing here reaches into the simulator: the split is "time in the call",
// not "time in the code", so a layer's share means the share of the calls
// the benchmark makes into that module (README.md, "Per-layer metrics").
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mptcp/scheduler.h"
#include "scenario/spec.h"

namespace mps {
class Connection;
class FlightRecorder;
}  // namespace mps

namespace perfbench {

// The public calls an op makes, in order. kBuild covers spec resolution and
// world construction (WorldBuilder::build, or a Run constructor that builds
// its world); kFinish covers result collection and teardown.
enum Phase { kBuild, kStart, kRun, kFork, kFinish, kFormat, kPhaseCount };
const char* phase_name(int phase);

// Wall time of one op by phase, plus the scheduler split when the op ran
// through a SchedProbe.
struct Ledger {
  std::array<std::int64_t, kPhaseCount> ns{};
  std::uint64_t picks = 0;
  std::uint64_t empty_picks = 0;  // pick() returned nullptr
  std::int64_t pick_ns = 0;
  std::int64_t rss_growth_bytes = 0;  // resident set growth from build to end of run
};

// Assigns the time since the previous lap to a phase. With a null ledger it
// reads no clock, so untraced ops pay nothing.
class PhaseClock {
 public:
  explicit PhaseClock(Ledger* ledger);
  void lap(Phase p);
  // Resident-set growth since construction, recorded into the ledger.
  void note_rss();

 private:
  Ledger* ledger_;
  std::chrono::steady_clock::time_point last_;
  std::int64_t rss_at_start_ = 0;
};

// Model counts of one op. Deterministic: identical ops give identical counts.
struct Counts {
  std::uint64_t events = 0;
  double sim_s = 0.0;
  std::uint64_t pkts_delivered = 0;  // downlink packets delivered
  std::uint64_t wire_bytes = 0;      // downlink bytes delivered, headers included
  std::uint64_t drops = 0;           // queue overflow + random loss
  std::uint64_t max_queue_depth = 0;
  std::uint64_t mux_orphans = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_reordered = 0;
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rto_events = 0;
  std::uint64_t segments_scheduled = 0;
  std::uint64_t reinjections = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t window_stalls = 0;
  std::uint64_t app_bytes = 0;  // in-order bytes handed to the application
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t forks = 0;

  Counts& operator+=(const Counts& o);
  Counts& operator*=(std::uint64_t k);
  friend bool operator==(const Counts&, const Counts&) = default;
};

struct OpResult {
  std::string text;     // the rendered outcome the user receives
  bool capped = false;  // a run hit its cap, or a download never completed
  Counts counts;
};

// Forwarding Scheduler decorator: times and counts pick() calls into the
// ledger and otherwise behaves exactly like the scheduler it wraps. The
// inner scheduler is never bound to a recorder, so with a recorder attached
// the decision log holds plain picks only; outcomes are unaffected.
class SchedProbe final : public mps::Scheduler {
 public:
  SchedProbe(std::unique_ptr<mps::Scheduler> inner, Ledger* ledger);

  mps::Subflow* pick(mps::Connection& conn) override;
  const char* name() const override { return inner_->name(); }
  bool duplicate_to_all() const override { return inner_->duplicate_to_all(); }
  void reset() override { inner_->reset(); }
  void on_subflow_change(mps::Connection& conn) override { inner_->on_subflow_change(conn); }
  void restore_from(const mps::Scheduler& src) override;

 private:
  std::unique_ptr<mps::Scheduler> inner_;
  Ledger* ledger_;
};

// Factory for the registry scheduler `name`, wrapped in a SchedProbe that
// reports into `ledger`.
mps::SchedulerFactory probed_factory(const std::string& name, Ledger* ledger);

// One prepared input. run() executes it once; `ledger` (may be null) takes
// the phase split, `recorder` (may be null) is attached where the runner
// accepts one (takes_recorder()).
class Cell {
 public:
  virtual ~Cell() = default;
  virtual OpResult run(Ledger* ledger, mps::FlightRecorder* recorder) = 0;
  virtual bool takes_recorder() const = 0;
  // Counts for ops whose runner hides the objects they live on (fork_k):
  // filled by reference(). Empty otherwise.
  virtual bool counts_from_reference() const { return false; }
  // The text every op must render. Empty when the reference is the first
  // op; otherwise produced by reference(), which may run the simulator and
  // is called after the measured window.
  virtual bool has_reference() const { return false; }
  virtual OpResult reference() { return {}; }

  const std::string& name() const { return name_; }

 protected:
  explicit Cell(std::string name) : name_(std::move(name)) {}

 private:
  std::string name_;
};

// A workload's inputs, made from its seed. `parse_ns` (may be null)
// accumulates the time spent in mps::parse_scenario.
struct Workload {
  std::vector<std::unique_ptr<Cell>> cells;  // run in this order, round-robin
};
const std::vector<std::string>& workload_names();
Workload load_workload(const std::string& name, std::uint64_t seed, const std::string& root,
                       std::int64_t* parse_ns);

// The workload shapes, exposed for the tests.
mps::ScenarioSpec crowd_spec(std::int64_t flows, double duration_s, std::uint64_t seed);
inline constexpr int kForks = 4;

}  // namespace perfbench
