// Runtime performance observability: compile-out-able scoped profilers and a
// memory-accounting layer. This is the *runtime* flight recorder, sibling to
// the protocol one (obs/recorder.h): where recorder.h answers "what did the
// stack decide", prof.h answers "where did the wall-clock and the bytes go".
//
// Two coordinated facilities, both default-off (CMake -DMPS_PROF=ON, same
// discipline as MPS_TRACE_EVENTS):
//
//  * MPS_PROF_SCOPE(id): an RAII timer at a hot seam (event pop/dispatch,
//    scheduler decide, CC update, fault draw, recorder sink, spec build).
//    Each thread accumulates into its own ProfileAccumulator — no locks, no
//    atomics on the timed path — and prof::snapshot() merges the per-thread
//    accumulators at report time. Nesting is tracked so every scope reports
//    both inclusive (total) and exclusive (self) time.
//  * MPS_PROF_MEM_SCOPE(subsys): tags the current thread so that global
//    operator new/delete (replaced only under MPS_PROF, in prof.cpp) charge
//    allocations to a subsystem: alloc/free counts, byte totals, live bytes
//    and high-water bytes, surfaced as resident-bytes-per-flow for traffic
//    runs.
//
// Determinism contract: profiling reads the wall clock and thread-locals
// only — never an Rng, never the simulator — so enabling it cannot perturb
// event ordering, and every golden stays byte-identical with MPS_PROF on.
// With MPS_PROF off, both macros expand to nothing and the guard types are
// empty (static_assert-ed in tests/prof_test.cpp), so instrumented sites
// cost zero.
//
// Thread model: accumulators register themselves in a global registry (one
// mutex acquisition per thread lifetime). snapshot()/reset() take that mutex
// and expect quiescence — call them between sweeps, not while workers run.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace mps::prof {

// --- scope taxonomy ---------------------------------------------------------
// Fixed enum rather than registered strings: accumulators are plain arrays
// indexed by scope, so the timed path is two clock reads and a handful of
// adds. Extend here (and in kScopeInfo, prof.cpp) when instrumenting a new
// seam.
enum class Scope : std::uint8_t {
  kEventPop,         // EventQueue::pop_until — cursor advance, bucket drain, heap pop, slot release
  kEventDispatch,    // firing the popped callback (everything the model does)
  kSchedDecide,      // Scheduler::pick from the connection's transmit loop
  kCcUpdate,         // congestion-controller hooks (ack increase, loss, RTO)
  kFaultDraw,        // fault-model should_drop / extra_delay per packet
  kRecorderEvent,    // FlightRecorder::record_event -> sink
  kRecorderDecision, // FlightRecorder::record_decision (aggregates + log)
  kMetricsRegister,  // MetricsRegistry instrument lookup/creation
  kSpecParse,        // Json::parse + scenario_from_json
  kWorldBuild,       // WorldBuilder::build — paths, links, recorder wiring
  kTrafficPlan,      // TrafficEngine::run planning (RNG forks, flow table)
  kCount
};
inline constexpr std::size_t kScopeCount = static_cast<std::size_t>(Scope::kCount);

// Stable wire name ("event.pop", ...) and subsystem grouping ("sim", ...)
// used by the ProfileReport schema. Both are string literals.
const char* scope_name(Scope s);
const char* scope_subsystem(Scope s);

// --- memory subsystems ------------------------------------------------------
// Coarser than Scope on purpose: allocations are charged to whatever tag the
// allocating thread carries, and the interesting split is "what kind of
// state is resident", not "which function allocated".
enum class MemSubsys : std::uint8_t {
  kOther,    // untagged (app payloads, queue growth mid-run, stdlib)
  kWorld,    // world construction: paths, links, muxes, variation traces
  kConn,     // connection + subflow state, per-flow app objects
  kEvents,   // event-queue slot arena and spilled callbacks
  kObs,      // recorder, metrics registry, trace sinks
  kTraffic,  // traffic-engine plan and flow table
  kSpec,     // JSON documents and ScenarioSpec resolution
  kCount
};
inline constexpr std::size_t kMemSubsysCount = static_cast<std::size_t>(MemSubsys::kCount);

const char* mem_subsys_name(MemSubsys s);

// --- merged counters --------------------------------------------------------

struct ScopeStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  // inclusive
  std::uint64_t self_ns = 0;   // exclusive of nested instrumented scopes

  void merge(const ScopeStats& o) {
    count += o.count;
    total_ns += o.total_ns;
    self_ns += o.self_ns;
  }
  friend bool operator==(const ScopeStats&, const ScopeStats&) = default;
};

struct MemStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t bytes_allocated = 0;
  std::uint64_t bytes_freed = 0;
  std::uint64_t live_bytes = 0;        // at snapshot time (clamped at 0)
  std::uint64_t high_water_bytes = 0;  // max simultaneous live bytes
};

struct Snapshot {
  std::array<ScopeStats, kScopeCount> scopes{};
  std::array<MemStats, kMemSubsysCount> memory{};
  MemStats memory_total;       // process-wide (single high-water series)
  std::uint64_t threads = 0;   // accumulators merged
};

// True when the profiler is compiled in (-DMPS_PROF).
constexpr bool compiled() {
#ifdef MPS_PROF
  return true;
#else
  return false;
#endif
}

// Merges every thread's accumulator. With MPS_PROF off this is all zeros.
Snapshot snapshot();

// Zeroes all accumulators and memory counters (high-water restarts from the
// current live level). Call only while no other thread is inside a profiled
// scope. Frees of pre-reset allocations may underflow live byte counts;
// snapshot() clamps those at zero.
void reset();

#ifdef MPS_PROF

namespace internal {

struct Accumulator;  // prof.cpp
Accumulator& thread_accumulator();
std::uint64_t now_ns();
void scope_enter(Accumulator& a, Scope s, std::uint64_t t);
void scope_exit(Accumulator& a, std::uint64_t t);
MemSubsys mem_tag_swap(MemSubsys next);

}  // namespace internal

// RAII scope timer. Holds the thread accumulator pointer so the destructor
// does not re-derive the thread_local.
class ScopeTimer {
 public:
  explicit ScopeTimer(Scope s) : acc_(internal::thread_accumulator()) {
    internal::scope_enter(acc_, s, internal::now_ns());
  }
  ~ScopeTimer() { internal::scope_exit(acc_, internal::now_ns()); }
  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

 private:
  internal::Accumulator& acc_;
};

// RAII memory tag: allocations on this thread are charged to `subsys` until
// the guard dies (restores the previous tag, so tags nest).
class MemScope {
 public:
  explicit MemScope(MemSubsys subsys) : prev_(internal::mem_tag_swap(subsys)) {}
  ~MemScope() { internal::mem_tag_swap(prev_); }
  MemScope(const MemScope&) = delete;
  MemScope& operator=(const MemScope&) = delete;

 private:
  MemSubsys prev_;
};

#define MPS_PROF_CONCAT2(a, b) a##b
#define MPS_PROF_CONCAT(a, b) MPS_PROF_CONCAT2(a, b)
#define MPS_PROF_SCOPE(id) \
  ::mps::prof::ScopeTimer MPS_PROF_CONCAT(mps_prof_scope_, __COUNTER__)(::mps::prof::Scope::id)
#define MPS_PROF_MEM_SCOPE(id)                             \
  ::mps::prof::MemScope MPS_PROF_CONCAT(mps_prof_mem_, __COUNTER__)( \
      ::mps::prof::MemSubsys::id)

#else  // !MPS_PROF

// Empty stand-ins so sizeof-based compile-out proofs have a subject; the
// macros themselves expand to nothing, so instrumented sites contain no code
// at all in default builds.
class ScopeTimer {
 public:
  explicit ScopeTimer(Scope) {}
};
class MemScope {
 public:
  explicit MemScope(MemSubsys) {}
};

#define MPS_PROF_SCOPE(id)
#define MPS_PROF_MEM_SCOPE(id)

#endif  // MPS_PROF

}  // namespace mps::prof
