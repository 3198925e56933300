// ScenarioSpec: the declarative description of one experiment — paths (with
// optional bandwidth-variation models), subflow topology, scheduler, CC,
// workload, seeds, and recording options. A spec is plain data: it can be
// written as JSON (scenarios/*.json), parsed, edited, serialized back
// (field-exact round trip), and handed to WorldBuilder (scenario/world.h)
// or the exp runners (exp/scenario_run.h) to execute.
//
// Numeric convention: every rate is stored in Mbps and every time in
// seconds/milliseconds as the *original literal*, exactly as the paper
// states it. Conversion to the simulator's Rate/Duration types happens once
// at build time. Specs never store values recovered from Rate::to_mbps() of
// a computed Rate — that conversion is not bit-exact, and byte-identical
// reproduction of the bench outputs depends on feeding the runners the same
// double literals the benches use.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/json.h"

namespace mps {

// Which built-in technology profile a path starts from. kWifi/kLte apply
// wifi_profile()/lte_profile() defaults (net/path.h); kCustom starts from a
// bare PathConfig.
enum class PathProfile { kWifi, kLte, kCustom };

enum class VariationKind {
  kNone,      // constant rate
  kSchedule,  // explicit (at_s, mbps) schedule
  kRandom,    // Section 5.3: rates drawn from levels_mbps at Exp(mean) intervals
  kJitter,    // Section 6: nominal rate x U[1-frac, 1+frac] at Exp(interval)
};

struct RatePoint {
  double at_s = 0.0;
  double mbps = 0.0;

  friend bool operator==(const RatePoint&, const RatePoint&) = default;
};

struct VariationSpec {
  VariationKind kind = VariationKind::kNone;
  std::vector<RatePoint> schedule;    // kSchedule
  std::vector<double> levels_mbps;    // kRandom
  double mean_interval_s = 40.0;      // kRandom (paper Section 5.3 uses 40 s)
  double jitter_frac = 0.2;           // kJitter
  double jitter_interval_s = 5.0;     // kJitter

  friend bool operator==(const VariationSpec&, const VariationSpec&) = default;
};

// Link impairment models for a path's downlink (fault/fault.h). Each
// sub-block is enabled by its presence in the JSON; a default-constructed
// FaultSpec (enabled() == false) resolves to a fault-free link that draws
// nothing from the loss RNG stream.
struct GilbertElliottSpec {
  bool enabled = false;
  double p_good_bad = 0.0;   // per-packet P(good -> bad)
  double p_bad_good = 0.25;  // per-packet P(bad -> good)
  double loss_good = 0.0;    // drop probability in the good state
  double loss_bad = 0.5;     // drop probability in the bad state

  friend bool operator==(const GilbertElliottSpec&, const GilbertElliottSpec&) = default;
};

struct OutageSpec {
  double at_s = 0.0;   // window start
  double for_s = 0.0;  // window length; all packets dropped in [at_s, at_s+for_s)

  friend bool operator==(const OutageSpec&, const OutageSpec&) = default;
};

struct FlapSpec {
  bool enabled = false;
  double period_s = 10.0;  // cycle length
  double down_s = 1.0;     // down-time at the start of each cycle
  double start_s = 0.0;    // offset of the first down edge

  friend bool operator==(const FlapSpec&, const FlapSpec&) = default;
};

struct ReorderSpec {
  bool enabled = false;
  double prob = 0.0;       // per-packet P(extra delay)
  double delay_ms = 20.0;  // base extra propagation delay
  double jitter_ms = 10.0; // plus U[0, jitter_ms)

  friend bool operator==(const ReorderSpec&, const ReorderSpec&) = default;
};

struct FaultSpec {
  GilbertElliottSpec gilbert_elliott;
  std::vector<OutageSpec> outages;
  FlapSpec flap;
  ReorderSpec reorder;

  bool enabled() const {
    return gilbert_elliott.enabled || !outages.empty() || flap.enabled || reorder.enabled;
  }

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

struct PathSpec {
  PathProfile profile = PathProfile::kWifi;
  // Fields below default from the profile at parse time (wifi: "wifi",
  // 16 ms; lte: "lte", 80 ms; custom: "path", 20 ms; all: queue 40 packets,
  // loss 0, uplink 100 Mbps), so a parsed spec is fully explicit.
  std::string name = "wifi";
  double rate_mbps = 10.0;  // regulated downlink; under kRandom the trace's
                            // first level supersedes it as the initial rate
  double rtt_ms = 16.0;
  std::int64_t queue_packets = 40;
  double loss_rate = 0.0;
  double up_mbps = 100.0;
  VariationSpec variation;
  FaultSpec faults;  // downlink impairments ("faults" JSON block)

  friend bool operator==(const PathSpec&, const PathSpec&) = default;
};

// Connection-template knobs the paper's ablations exercise. Everything else
// in ConnectionConfig keeps its library default.
struct ConnSpec {
  std::string cc = "lia";  // tcp/cc_registry name
  bool idle_cwnd_reset = true;
  bool opportunistic_rtx = true;
  bool penalization = true;
  std::int64_t staging_bytes = 0;  // 0 = library default

  friend bool operator==(const ConnSpec&, const ConnSpec&) = default;
};

enum class WorkloadKind { kStream, kDownload, kWeb };

struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kStream;
  // kStream
  double video_s = 180.0;
  std::string abr = "buffer";  // "buffer" | "rate"
  // kDownload
  std::int64_t bytes = 512 * 1024;
  // Seeded repetitions: streaming averages, download samples, web page loads.
  std::int64_t runs = 1;

  friend bool operator==(const WorkloadSpec&, const WorkloadSpec&) = default;
};

struct RecordSpec {
  bool collect_traces = false;  // CWND + send-buffer time series
  bool summarize = false;       // print the flight-recorder report after a run

  friend bool operator==(const RecordSpec&, const RecordSpec&) = default;
};

// One group of single-path TCP cross-traffic flows loading a bottleneck
// (traffic/engine.h). Cross flows are plain bulk senders pinned to a single
// path; they never complete — their goodput is measured over the run.
struct CrossTrafficSpec {
  std::int64_t path = 0;   // index into ScenarioSpec::paths
  std::int64_t flows = 1;  // concurrent bulk flows on that path
  double start_s = 0.0;    // when the group starts sending

  friend bool operator==(const CrossTrafficSpec&, const CrossTrafficSpec&) = default;
};

// Largest flow count a spec may ask for (traffic.flows, traffic.cross[].flows,
// traffic.max_arrivals): the engine plans one entry per flow up front, so an
// unbounded count would exhaust memory instead of failing at parse time.
// Ten times bench_scale's largest (100k-flow) cell.
inline constexpr std::int64_t kMaxTrafficFlows = 1'000'000;

// Competing-traffic model: N concurrent MPTCP flows over the shared paths,
// with optional Poisson connection churn and single-path cross traffic.
// Enabled by the presence of a "traffic" JSON block; when enabled the
// workload block is ignored and the run is driven by traffic/engine.h.
struct TrafficSpec {
  bool enabled = false;
  std::int64_t flows = 1;            // MPTCP flows present at t = 0
  double arrival_rate_per_s = 0.0;   // Poisson churn arrivals (0 = no churn)
  std::int64_t max_arrivals = 1024;  // hard cap on churn arrivals
  std::int64_t flow_bytes = 256 * 1024;  // size parameter (mean for dists)
  std::string size_dist = "fixed";   // "fixed" | "exponential" | "pareto"
  double pareto_alpha = 1.5;         // shape for "pareto" (must be > 1)
  double duration_s = 10.0;          // run length; churn arrivals stop here
  std::vector<CrossTrafficSpec> cross;

  friend bool operator==(const TrafficSpec&, const TrafficSpec&) = default;
};

// One scripted subflow add/remove (mptcp/path_manager.h timed actions).
struct PathEventSpec {
  double at_s = 0.0;
  std::string action = "add";  // "add" | "remove"
  std::int64_t path = 0;       // index into ScenarioSpec::paths
  std::string mode = "drain";  // "remove" teardown: "drain" | "abandon"

  friend bool operator==(const PathEventSpec&, const PathEventSpec&) = default;
};

// Cap-N growth sub-block (htsim subflow_control shape). Enabled by presence.
struct SubflowCapSpec {
  bool enabled = false;
  std::int64_t max_subflows = 4;
  std::int64_t bytes_per_subflow = 64 * 1024;
  std::vector<std::int64_t> paths;  // round-robin growth targets

  friend bool operator==(const SubflowCapSpec&, const SubflowCapSpec&) = default;
};

// Backup-promotion sub-block. Enabled by presence.
struct BackupSpec {
  bool enabled = false;
  std::vector<std::int64_t> paths;   // held in reserve, no subflow at start
  std::int64_t promote_after_rtos = 2;

  friend bool operator==(const BackupSpec&, const BackupSpec&) = default;
};

// Dynamic path management (mptcp/path_manager.h). Enabled by the presence of
// a "path_manager" JSON block. Paths listed in backup.paths start without a
// subflow; everything else gets subflows_per_path as usual.
struct PathManagerSpec {
  bool enabled = false;
  double tick_ms = 10.0;
  double drain_timeout_s = 2.0;
  bool join_delay_rtt = true;
  std::vector<PathEventSpec> events;  // must be sorted by at_s
  SubflowCapSpec cap;
  BackupSpec backup;

  friend bool operator==(const PathManagerSpec&, const PathManagerSpec&) = default;
};

struct ScenarioSpec {
  std::string name;  // free-form label, not used by the builder
  std::vector<PathSpec> paths;  // construction (and RNG fork) order
  std::int64_t subflows_per_path = 1;
  std::string scheduler = "default";  // sched/registry name
  ConnSpec conn;
  WorkloadSpec workload;
  TrafficSpec traffic;  // competing-traffic block; workload ignored when enabled
  PathManagerSpec path_manager;  // subflow churn block; absent = static topology
  std::uint64_t seed = 1;
  // Master seed for generated bandwidth traces (kRandom/kJitter): one
  // Rng(trace_seed) is forked once per varied path, in path order.
  std::uint64_t trace_seed = 0;
  RecordSpec record;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

// Convenience constructors for the common two-path testbed.
PathSpec wifi_path(double rate_mbps);
PathSpec lte_path(double rate_mbps);

// --- enum <-> name ----------------------------------------------------------
const char* path_profile_name(PathProfile p);
const char* variation_kind_name(VariationKind k);
const char* workload_kind_name(WorkloadKind k);

// --- JSON binding -----------------------------------------------------------
// Strict: unknown or mistyped keys throw std::invalid_argument naming the
// offending key path (e.g. "paths[1].variation.levels_mbps").
ScenarioSpec scenario_from_json(const Json& j);
Json scenario_to_json(const ScenarioSpec& spec);

// Text front ends; parse_scenario also converts JsonError into
// std::invalid_argument. serialize_scenario is round-trip stable:
// parse(serialize(s)) == s, field-exact.
ScenarioSpec parse_scenario(const std::string& text);
std::string serialize_scenario(const ScenarioSpec& spec, int indent = 2);

}  // namespace mps
