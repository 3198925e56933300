#include "scenario/spec.h"

#include <algorithm>
#include <array>
#include <climits>
#include <stdexcept>
#include <type_traits>

#include "obs/prof.h"
#include "sched/registry.h"
#include "tcp/cc_registry.h"

namespace mps {

namespace {

// The names a string field may take. An enum field stores the index of its
// name, so one table serves parsing, serializing, *_name() and the error.
struct Names {
  const char* what;  // for the error, "unknown <what> ..."; null: the key
  std::array<const char*, 4> names;  // null-padded; widen for a fifth name

  std::size_t size() const { return std::ranges::find(names, nullptr) - names.begin(); }
  std::size_t index(const std::string& s) const {  // size() when `s` is none of them
    return std::find(names.begin(), names.begin() + size(), s) - names.begin();
  }
  std::string unknown(const char* key, const std::string& s) const {
    std::string msg = "unknown " + std::string(what ? what : key) + " \"" + s + "\" (known: ";
    for (std::size_t i = 0; i < size(); ++i) {
      if (i) msg += ", ";
      msg += names[i];
    }
    msg += ")";
    return msg;
  }
};

constexpr Names kProfiles{nullptr, {"wifi", "lte", "custom"}};
constexpr Names kVariationKinds{"variation kind", {"none", "schedule", "random", "jitter"}};
constexpr Names kWorkloadKinds{"workload kind", {"stream", "download", "web"}};
constexpr Names kAbrs{nullptr, {"buffer", "rate"}};
constexpr Names kSizeDists{nullptr, {"fixed", "exponential", "pareto"}};
constexpr Names kActions{nullptr, {"add", "remove"}};
constexpr Names kModes{nullptr, {"drain", "abandon"}};

// A path with its profile's defaults: named after the profile (a custom one
// is just named path), with the profile's RTT.
PathSpec profile_path(PathProfile profile, double rate_mbps) {
  constexpr double kRttMs[] = {16.0, 80.0, 20.0};  // indexed like kProfiles
  PathSpec p;
  p.profile = profile;
  p.name = profile == PathProfile::kCustom ? "path" : kProfiles.names[static_cast<int>(profile)];
  p.rate_mbps = rate_mbps;
  p.rtt_ms = kRttMs[static_cast<int>(profile)];
  return p;
}

// A field check: a predicate on the field's value and the message it fails with.
template <class P>
struct Check { P ok; const char* msg; };

constexpr Check kPositive{[](auto v) { return v > 0; }, "must be > 0"};
constexpr Check kNonNegative{[](auto v) { return v >= 0; }, "must be >= 0"};
constexpr Check kFraction{[](double v) { return v >= 0.0 && v < 1.0; }, "must be in [0, 1)"};
constexpr Check kProbability{[](double v) { return v >= 0.0 && v <= 1.0; }, "must be in [0, 1]"};
// The runners hold these counts in an int.
constexpr Check kFitsInt{[](std::int64_t v) { return v <= INT_MAX; }, "must be <= 2147483647"};
constexpr Check kFlowCount{[](std::int64_t v) { return v <= kMaxTrafficFlows; },
                          "must be <= 1000000"};
static_assert(kMaxTrafficFlows == 1'000'000, "kFlowCount's message names the bound");
// Every time-valued key: the simulation clock counts int64 nanoseconds
// (about 9.2e9 s), and the runners derive later times from these, the
// longest a stream's safety cap of 30 x video_s + 600 s and a start plus a
// duration, so one bound keeps each of them in range.
constexpr double kMaxTimeS = 1e8;
constexpr Check kTimeS{[](double v) { return v <= kMaxTimeS; }, "must be <= 1e8 (s)"};
constexpr Check kTimeMs{[](double v) { return v <= kMaxTimeS * 1e3; }, "must be <= 1e11 (ms)"};
static_assert(30 * kMaxTimeS + 600 < 9.2e9, "the derived stream cap fits the clock");
constexpr Check kNonEmpty{[](const auto& v) { return !v.empty(); }, "required (non-empty)"};

// A name a registry must know; the registry's own error is the message.
template <class F>
struct Registered { F lookup; };
struct PathIndex {};  // an index into ScenarioSpec::paths
struct Required {};   // the key may not be left out

// --- the schema --------------------------------------------------------------
// One walk per spec struct names each key once, in serialization order, with
// its checks. The IO is a Reader (JSON -> spec) or a Writer (spec -> JSON).
// Defaults are the member initializers in spec.h; per-profile ones come from
// profile_path. opt() keys are written only when set. A walk that calls
// check_after_keys() has its checks run after the unknown-key scan.

template <class IO>
void walk(IO& io, RatePoint& p) {
  io("at_s", p.at_s, kTimeS);
  io("mbps", p.mbps, kPositive);
}

template <class IO>
void walk(IO& io, VariationSpec& v) {
  io.check_after_keys();
  io("kind", v.kind, kVariationKinds);
  io.opt("schedule", v.schedule,
         Check{[&v](const auto& s) { return v.kind != VariationKind::kSchedule || !s.empty(); },
               "required (non-empty) for kind \"schedule\""});
  io.opt("levels_mbps", v.levels_mbps,
         Check{[&v](const auto& l) { return v.kind != VariationKind::kRandom || !l.empty(); },
               "required (non-empty) for kind \"random\""});
  io("mean_interval_s", v.mean_interval_s, kPositive, kTimeS);
  io("jitter_frac", v.jitter_frac, kFraction);
  io("jitter_interval_s", v.jitter_interval_s, kPositive, kTimeS);
}

template <class IO>
void walk(IO& io, GilbertElliottSpec& g) {
  io.check_after_keys();
  io("p_good_bad", g.p_good_bad, kFraction);
  // p_bad_good == 0 would make the bad state absorbing; use an outage for
  // a permanent blackout instead.
  io("p_bad_good", g.p_bad_good,
     Check{[](double v) { return v > 0.0 && v <= 1.0; }, "must be in (0, 1]"});
  io("loss_good", g.loss_good, kFraction);
  io("loss_bad", g.loss_bad, kProbability);
}

template <class IO>
void walk(IO& io, OutageSpec& w) {
  io.check_after_keys();
  io("at_s", w.at_s, kNonNegative, kTimeS);
  io("for_s", w.for_s, kPositive, kTimeS);
}

template <class IO>
void walk(IO& io, FlapSpec& f) {
  io.check_after_keys();
  io("period_s", f.period_s, kPositive, kTimeS);
  io("down_s", f.down_s,
     Check{[&f](double d) { return d > 0.0 && d < f.period_s; }, "must be in (0, period_s)"});
  io("start_s", f.start_s, kNonNegative, kTimeS);
}

template <class IO>
void walk(IO& io, ReorderSpec& r) {
  io.check_after_keys();
  io("prob", r.prob, kProbability);
  io("delay_ms", r.delay_ms, kPositive, kTimeMs);
  io("jitter_ms", r.jitter_ms, kNonNegative, kTimeMs);
}

template <class IO>
void walk(IO& io, FaultSpec& f) {
  io.opt("gilbert_elliott", f.gilbert_elliott);
  io.opt("outages", f.outages);
  io.opt("flap", f.flap);
  io.opt("reorder", f.reorder);
}

template <class IO>
void walk(IO& io, PathSpec& p) {
  if constexpr (IO::kReads) p.profile = PathProfile::kCustom;  // the default when absent
  io("profile", p.profile, kProfiles);
  if constexpr (IO::kReads) p = profile_path(p.profile, p.rate_mbps);
  io("name", p.name);
  io("rate_mbps", p.rate_mbps, Required{}, kPositive);
  io("rtt_ms", p.rtt_ms, kPositive, kTimeMs);
  io("queue_packets", p.queue_packets, kPositive);
  io("loss_rate", p.loss_rate, kFraction);
  io("up_mbps", p.up_mbps, kPositive);
  io.opt("variation", p.variation);
  io.opt("faults", p.faults,
         Check{[](const FaultSpec& f) { return f.enabled(); },
               "empty faults block (give gilbert_elliott, outages, flap, or reorder)"});
}

template <class IO>
void walk(IO& io, ConnSpec& c) {
  io("cc", c.cc, Registered{cc_kind_from_name});
  io("idle_cwnd_reset", c.idle_cwnd_reset);
  io("opportunistic_rtx", c.opportunistic_rtx);
  io("penalization", c.penalization);
  io("staging_bytes", c.staging_bytes, kNonNegative);
}

template <class IO>
void walk(IO& io, WorkloadSpec& w) {
  io("kind", w.kind, kWorkloadKinds);
  io("video_s", w.video_s, kPositive, kTimeS);
  io("abr", w.abr, kAbrs);
  io("bytes", w.bytes, kPositive);
  io("runs", w.runs, kPositive, kFitsInt);
}

template <class IO>
void walk(IO& io, CrossTrafficSpec& x) {
  io("path", x.path, PathIndex{});
  io("flows", x.flows, kPositive, kFlowCount);
  io("start_s", x.start_s, kNonNegative, kTimeS);
}

template <class IO>
void walk(IO& io, TrafficSpec& t) {
  io("flows", t.flows, kPositive, kFlowCount);
  io("arrival_rate_per_s", t.arrival_rate_per_s, kNonNegative);
  io("max_arrivals", t.max_arrivals, kNonNegative, kFlowCount);
  io("flow_bytes", t.flow_bytes, kPositive);
  io("size_dist", t.size_dist, kSizeDists);
  io("pareto_alpha", t.pareto_alpha,
     Check{[](double a) { return a > 1.0; }, "must be > 1 (finite mean)"});
  io("duration_s", t.duration_s, kPositive, kTimeS);
  io.opt("cross", t.cross);
}

template <class IO>
void walk(IO& io, PathEventSpec& e) {
  const PathEventSpec* prev = io.prev(e);
  io("at_s", e.at_s, kNonNegative, kTimeS,
     Check{[prev](double a) { return !prev || a >= prev->at_s; }, "events must be sorted by at_s"});
  io("action", e.action, kActions);
  io("path", e.path, PathIndex{});
  io("mode", e.mode, kModes);
}

template <class IO>
void walk(IO& io, SubflowCapSpec& c) {
  io("max_subflows", c.max_subflows, kPositive, kFitsInt);
  io("bytes_per_subflow", c.bytes_per_subflow, kPositive);
  io("paths", c.paths, kNonEmpty);
}

template <class IO>
void walk(IO& io, BackupSpec& b) {
  io("paths", b.paths, kNonEmpty);
  io("promote_after_rtos", b.promote_after_rtos, kPositive, kFitsInt);
}

template <class IO>
void walk(IO& io, PathManagerSpec& pm) {
  io("tick_ms", pm.tick_ms, kPositive, kTimeMs);
  io("drain_timeout_s", pm.drain_timeout_s, kPositive, kTimeS);
  io("join_delay_rtt", pm.join_delay_rtt);
  io.opt("events", pm.events);
  io.opt("cap", pm.cap);
  io.opt("backup", pm.backup);
}

template <class IO>
void walk(IO& io, RecordSpec& r) {
  io("collect_traces", r.collect_traces);
  io("summarize", r.summarize);
}

template <class IO>
void walk(IO& io, ScenarioSpec& s) {
  io.opt("name", s.name);
  io("paths", s.paths, Required{}, Check{kNonEmpty.ok, "expected a non-empty array"});
  io("subflows_per_path", s.subflows_per_path, kPositive, kFitsInt);
  io("scheduler", s.scheduler, Registered{scheduler_factory});
  io("conn", s.conn);
  io("workload", s.workload);
  io.opt("traffic", s.traffic);
  io.opt("path_manager", s.path_manager,
         Check{[&s](const PathManagerSpec&) { return !s.traffic.enabled; },
               "not supported together with a traffic block"});
  io("seed", s.seed);
  io("trace_seed", s.trace_seed);
  io("record", s.record);
}

// --- the two IOs -------------------------------------------------------------
// A nested JSON object: one of the spec structs (not a string or a vector).
template <class T>
constexpr bool kIsBlock = std::is_class_v<T> && !requires { typename T::value_type; };

constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

// `parent`.`key`[`index`]; a null key names `parent` itself.
std::string key_path(const std::string& parent, const char* key, std::size_t index) {
  std::string p = key == nullptr ? parent : parent.empty() ? key : parent + "." + key;
  if (index != kNoIndex) p += "[" + std::to_string(index) + "]";
  return p;
}

// Reads one JSON object into a spec struct, strictly: a mistyped or failed
// field throws as it is read, and finish() rejects keys the walk never named.
// Key paths ("paths[1].variation.levels_mbps") are built only to throw.
class Reader {
 public:
  static constexpr bool kReads = true;

  // The root object, or the block `key`[`index`] of `parent`.
  Reader(const Json& j, const ScenarioSpec& spec, const Reader* parent = nullptr,
         const char* key = "", std::size_t index = kNoIndex, const void* prev = nullptr)
      : j_(j), spec_(spec), parent_(parent), key_(key), index_(index), prev_(prev) {
    if (!j.is_object()) fail(nullptr, "expected an object");
  }

  template <class T, class... C>
  void operator()(const char* key, T& v, const C&... checks) {
    const Json* j = checking_ ? nullptr : find(key);
    if (j != nullptr) read(key, *j, v, checks...);
    if (j == nullptr && !checking_ && (std::is_same_v<C, Required> || ...)) fail(key, "required");
    if (checking_ != checks_after_keys_ || (kIsBlock<T> && !j)) return;  // blocks: when given
    if constexpr (!std::is_enum_v<T>) (apply(key, v, checks), ...);  // read() maps names
  }
  template <class T, class... C>
  void opt(const char* key, T& v, const C&... checks) { (*this)(key, v, checks...); }
  void check_after_keys() { checks_after_keys_ = true; }

  // The element read before this one in the same array, if any.
  template <class T>
  const T* prev(const T&) const { return static_cast<const T*>(prev_); }

  void finish() const {
    const auto& m = j_.members();
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (i >= 64 || (used_ >> i & 1) == 0) fail(m[i].first.c_str(), "unknown key");
    }
  }

 private:
  [[noreturn]] void fail(const char* key, const std::string& msg, std::size_t i = kNoIndex) const {
    throw std::invalid_argument("scenario spec: " + key_path(path(), key, i) + ": " + msg);
  }
  std::string path() const { return parent_ ? key_path(parent_->path(), key_, index_) : ""; }

  const Json* find(const char* key) {
    const auto& m = j_.members();
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (m[i].first != key) continue;
      if (i < 64) used_ |= std::uint64_t{1} << i;
      return &m[i].second;
    }
    return nullptr;
  }

  template <class T, class... C>
  void read(const char* key, const Json& j, T& v, const C&... checks) const {
    if constexpr (std::is_same_v<T, double>) {
      if (!j.is_number()) fail(key, "expected a number");
      v = j.as_double();
    } else if constexpr (std::is_same_v<T, std::int64_t> || std::is_same_v<T, std::uint64_t>) {
      if (!j.is_int()) fail(key, "expected an integer");
      if (std::is_unsigned_v<T> && j.as_int() < 0) fail(key, "must be >= 0");  // seeds
      v = static_cast<T>(j.as_int());
    } else if constexpr (std::is_same_v<T, bool>) {
      if (!j.is_bool()) fail(key, "expected true or false");
      v = j.as_bool();
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (!j.is_string()) fail(key, "expected a string");
      v = j.as_string();
    } else if constexpr (std::is_enum_v<T>) {
      const Names& names = (checks, ...);  // an enum's one check is its name table
      std::string s;
      read(key, j, s);
      apply(key, s, names);
      v = static_cast<T>(names.index(s));
    } else if constexpr (std::is_same_v<T, std::vector<double>>) {
      if (!j.is_array()) fail(key, "expected an array of numbers");
      for (std::size_t i = 0; i < j.items().size(); ++i) {
        if (!j.items()[i].is_number()) fail(key, "expected a number", i);
        v.push_back(j.items()[i].as_double());
      }
    } else if constexpr (std::is_same_v<T, std::vector<std::int64_t>>) {  // path indices
      if (!j.is_array()) fail(key, "expected an array of path indices");
      for (std::size_t i = 0; i < j.items().size(); ++i) {
        if (!j.items()[i].is_int()) fail(key, "expected an integer path index", i);
        v.push_back(j.items()[i].as_int());
        apply(key, v.back(), PathIndex{}, i);
      }
    } else if constexpr (!kIsBlock<T>) {
      // The spec's paths, the one array of blocks that must not be empty, say so.
      const bool paths = std::is_same_v<T, std::vector<PathSpec>>;
      if (!j.is_array()) fail(key, paths ? "expected a non-empty array" : "expected an array");
      for (std::size_t i = 0; i < j.items().size(); ++i) {
        typename T::value_type e;
        read_block(j.items()[i], key, i, e, v.empty() ? nullptr : &v.back());
        v.push_back(std::move(e));
      }
    } else {
      if constexpr (requires { v.enabled = true; }) v.enabled = true;  // enabled by presence
      read_block(j, key, kNoIndex, v, nullptr);
    }
  }

  template <class T>
  void read_block(const Json& j, const char* key, std::size_t i, T& v, const void* prev) const {
    Reader r(j, spec_, this, key, i, prev);
    walk(r, v);
    r.finish();
    if (r.checks_after_keys_) {
      r.checking_ = true;
      walk(r, v);
    }
  }

  template <class T, class P>
  void apply(const char* key, const T& v, const Check<P>& c) const {
    if (!c.ok(v)) fail(key, c.msg);
  }
  template <class F>
  void apply(const char* key, const std::string& v, const Registered<F>& r) const {
    try {
      (void)r.lookup(v);
    } catch (const std::invalid_argument& e) {
      fail(key, e.what());
    }
  }
  void apply(const char* key, std::int64_t v, PathIndex, std::size_t index = kNoIndex) const {
    const std::size_t n = spec_.paths.size();
    if (v < 0 || static_cast<std::size_t>(v) >= n) {
      fail(key, "path index out of range (have " + std::to_string(n) + " paths)", index);
    }
  }
  void apply(const char* key, const std::string& v, const Names& names) const {
    if (names.index(v) == names.size()) fail(key, names.unknown(key, v));
  }
  void apply(const char*, const auto&, Required) const {}

  const Json& j_;
  const ScenarioSpec& spec_;  // the spec being read; its paths are read first
  const Reader* parent_ = nullptr;
  const char* key_ = nullptr;
  std::size_t index_ = kNoIndex;
  const void* prev_ = nullptr;
  std::uint64_t used_ = 0;  // bit i: member i was read; a walk names at most
                            // 12 keys, so members past 64 follow unknown ones
  bool checks_after_keys_ = false;
  bool checking_ = false;  // the second walk of a check_after_keys() struct
};

// Builds the JSON object a walk describes. An opt() key is written only when
// set: a block when enabled, anything else when it differs from its default.
class Writer {
 public:
  static constexpr bool kReads = false;

  template <class T, class... C>
  void operator()(const char* key, const T& v, const C&... c) { j_.set(key, to_json(v, c...)); }
  template <class T, class... C>
  void opt(const char* key, const T& v, const C&... checks) {
    bool set = false;
    if constexpr (requires { v.enabled(); }) set = v.enabled();
    else if constexpr (requires { v.enabled; }) set = v.enabled;
    else set = !(v == T{});
    if (set) (*this)(key, v, checks...);
  }
  void check_after_keys() {}
  template <class T>
  static const T* prev(const T&) { return nullptr; }

  template <class T, class... C>
  static Json to_json(const T& v, const C&... checks) {
    if constexpr (std::is_enum_v<T>) {
      return Json::string((checks, ...).names[static_cast<std::size_t>(v)]);  // the name table
    } else if constexpr (std::is_same_v<T, bool>) {
      return Json::boolean(v);
    } else if constexpr (std::is_arithmetic_v<T>) {  // uint64 seeds print as int64
      return Json::number(std::conditional_t<std::is_integral_v<T>, std::int64_t, double>(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      return Json::string(v);
    } else if constexpr (!kIsBlock<T>) {
      Json a = Json::array();
      for (const auto& e : v) a.push_back(to_json(e));
      return a;
    } else {
      Writer w;
      walk(w, const_cast<T&>(v));  // a Writer never writes through the walk
      return std::move(w.j_);
    }
  }

 private:
  Json j_ = Json::object();
};

}  // namespace

PathSpec wifi_path(double rate_mbps) { return profile_path(PathProfile::kWifi, rate_mbps); }
PathSpec lte_path(double rate_mbps) { return profile_path(PathProfile::kLte, rate_mbps); }

const char* path_profile_name(PathProfile p) { return kProfiles.names[static_cast<int>(p)]; }
const char* variation_kind_name(VariationKind k) {
  return kVariationKinds.names[static_cast<int>(k)];
}
const char* workload_kind_name(WorkloadKind k) { return kWorkloadKinds.names[static_cast<int>(k)]; }

ScenarioSpec scenario_from_json(const Json& j) {
  MPS_PROF_SCOPE(kSpecParse);
  MPS_PROF_MEM_SCOPE(kSpec);
  ScenarioSpec s;
  Reader r(j, s);
  walk(r, s);
  r.finish();
  return s;
}

Json scenario_to_json(const ScenarioSpec& spec) { return Writer::to_json(spec); }

ScenarioSpec parse_scenario(const std::string& text) {
  Json j;
  try {
    j = Json::parse(text);
  } catch (const JsonError& e) {
    throw std::invalid_argument(std::string("scenario spec: ") + e.what());
  }
  return scenario_from_json(j);
}

std::string serialize_scenario(const ScenarioSpec& spec, int indent) {
  return scenario_to_json(spec).dump(indent) + "\n";
}

}  // namespace mps
