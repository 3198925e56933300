#include "ops.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#include "exp/download.h"
#include "exp/scenario_run.h"
#include "exp/snapshot.h"
#include "exp/streaming.h"
#include "exp/webrun.h"
#include "mptcp/connection.h"
#include "obs/recorder.h"
#include "scenario/world.h"
#include "sched/registry.h"
#include "traffic/engine.h"

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

const char* phase_name(int phase) {
  static const char* const kNames[kPhaseCount] = {"build", "start",  "run",
                                                  "fork",  "finish", "format"};
  return kNames[phase];
}

namespace {

std::int64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

}  // namespace

PhaseClock::PhaseClock(Ledger* ledger) : ledger_(ledger) {
  if (ledger_ == nullptr) return;
  rss_at_start_ = resident_bytes();
  last_ = Clock::now();
}

void PhaseClock::lap(Phase p) {
  if (ledger_ == nullptr) return;
  const auto now = Clock::now();
  ledger_->ns[p] += (now - last_).count();
  last_ = now;
}

void PhaseClock::note_rss() {
  if (ledger_ == nullptr) return;
  ledger_->rss_growth_bytes =
      std::max(ledger_->rss_growth_bytes, resident_bytes() - rss_at_start_);
  last_ = Clock::now();  // the /proc read belongs to no phase
}

Counts& Counts::operator+=(const Counts& o) {
  events += o.events;
  sim_s += o.sim_s;
  pkts_delivered += o.pkts_delivered;
  wire_bytes += o.wire_bytes;
  drops += o.drops;
  max_queue_depth = std::max(max_queue_depth, o.max_queue_depth);
  mux_orphans += o.mux_orphans;
  fault_drops += o.fault_drops;
  fault_reordered += o.fault_reordered;
  segments_sent += o.segments_sent;
  retransmits += o.retransmits;
  rto_events += o.rto_events;
  segments_scheduled += o.segments_scheduled;
  reinjections += o.reinjections;
  duplicates += o.duplicates;
  window_stalls += o.window_stalls;
  app_bytes += o.app_bytes;
  flows_started += o.flows_started;
  flows_completed += o.flows_completed;
  forks += o.forks;
  return *this;
}

Counts& Counts::operator*=(std::uint64_t k) {
  const std::uint64_t depth = max_queue_depth;
  Counts sum;
  for (std::uint64_t i = 0; i < k; ++i) sum += *this;
  *this = sum;
  max_queue_depth = depth;
  return *this;
}

// --- scheduler probe ----------------------------------------------------------

SchedProbe::SchedProbe(std::unique_ptr<mps::Scheduler> inner, Ledger* ledger)
    : inner_(std::move(inner)), ledger_(ledger) {}

mps::Subflow* SchedProbe::pick(mps::Connection& conn) {
  const auto t0 = Clock::now();
  mps::Subflow* sf = inner_->pick(conn);
  ledger_->pick_ns += (Clock::now() - t0).count();
  ++ledger_->picks;
  if (sf == nullptr) ++ledger_->empty_picks;
  return sf;
}

void SchedProbe::restore_from(const mps::Scheduler& src) {
  mps::Scheduler::restore_from(src);
  inner_->restore_from(*static_cast<const SchedProbe&>(src).inner_);
}

mps::SchedulerFactory probed_factory(const std::string& name, Ledger* ledger) {
  mps::SchedulerFactory inner = mps::scheduler_factory(name);
  return [inner, ledger] { return std::make_unique<SchedProbe>(inner(), ledger); };
}

namespace {

// --- model counts read off the objects an op leaves behind ---------------------

void add_downlinks(const std::vector<const mps::Path*>& paths, Counts& c) {
  for (const mps::Path* p : paths) {
    const mps::LinkStats& s = p->down().stats();
    c.pkts_delivered += s.packets_delivered;
    c.wire_bytes += s.bytes_delivered;
    c.drops += s.drops_queue + s.drops_random;
    c.fault_drops += s.drops_fault;
    c.fault_reordered += s.reordered;
    c.max_queue_depth = std::max<std::uint64_t>(c.max_queue_depth, s.max_queue_depth);
  }
}

// Subflow (live and retired) and meta-level counters of one connection.
void add_connection(const mps::Connection& conn, Counts& c) {
  for (std::size_t slot = 0; slot < conn.slot_count(); ++slot) {
    const mps::Subflow* sf = conn.subflow_at(slot);
    const mps::SubflowStats& s = sf != nullptr ? sf->stats() : conn.retired_stats(slot);
    c.segments_sent += s.segments_sent;
    c.retransmits += s.retransmits;
    c.rto_events += s.rto_events;
  }
  const mps::MetaStats& m = conn.meta_stats();
  c.segments_scheduled += m.segments_scheduled;
  c.reinjections += m.reinjections;
  c.duplicates += m.duplicate_segments;
  c.window_stalls += m.window_stalls;
  c.app_bytes += m.delivered_bytes;
}

// add_connection plus the downlinks of the paths the connection used.
void add_single_connection(const mps::Connection& conn, Counts& c) {
  add_connection(conn, c);
  std::vector<const mps::Path*> paths;
  for (std::size_t slot = 0; slot < conn.slot_count(); ++slot) {
    const mps::Path* p = conn.slot_path(slot);
    if (p != nullptr && std::find(paths.begin(), paths.end(), p) == paths.end()) {
      paths.push_back(p);
    }
  }
  add_downlinks(paths, c);
}

void add_traffic_result(const mps::TrafficResult& res, Counts& c) {
  c.flows_started += res.started;
  c.flows_completed += res.completed;
  c.mux_orphans += res.orphans;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

mps::ScenarioSpec timed_parse(const std::string& text, std::int64_t* parse_ns) {
  const auto t0 = Clock::now();
  mps::ScenarioSpec spec = mps::parse_scenario(text);
  if (parse_ns != nullptr) *parse_ns += (Clock::now() - t0).count();
  return spec;
}

// --- paper_cells: one checked-in single-connection preset ----------------------

// A preset run the way the golden corpus renders it (smoke scale, name line,
// recorder summary when the spec asks for one), driven through the Run
// classes so each public call can be timed.
class PresetCell final : public Cell {
 public:
  PresetCell(std::string name, mps::ScenarioSpec spec, std::string golden)
      : Cell(std::move(name)), spec_(std::move(spec)), golden_(std::move(golden)) {}

  // Only the streaming runner accepts a caller's recorder.
  bool takes_recorder() const override {
    return spec_.workload.kind == mps::WorkloadKind::kStream;
  }
  bool has_reference() const override { return true; }
  OpResult reference() override { return OpResult{golden_, false, {}}; }

  OpResult run(Ledger* ledger, mps::FlightRecorder* recorder) override {
    PhaseClock clock(ledger);
    OpResult r;
    mps::RunTelemetry tel;
    mps::ScenarioOutcome out;
    out.kind = spec_.workload.kind;
    std::unique_ptr<mps::FlightRecorder> summary_rec;
    switch (spec_.workload.kind) {
      case mps::WorkloadKind::kStream: {
        mps::ScenarioRunOptions opts;
        opts.telemetry = &tel;
        if (spec_.record.summarize && recorder == nullptr) {
          summary_rec = std::make_unique<mps::FlightRecorder>();
          recorder = summary_rec.get();
        }
        opts.recorder = recorder;
        if (ledger != nullptr) opts.scheduler_override = probed_factory(spec_.scheduler, ledger);
        auto run =
            std::make_unique<mps::StreamingRun>(mps::streaming_params_from_spec(spec_, opts));
        clock.lap(kBuild);
        run->start();
        clock.lap(kStart);
        run->run_to(mps::TimePoint::never());
        clock.lap(kRun);
        clock.note_rss();
        out.streaming = run->finish();
        r.capped = !run->done();
        add_single_connection(run->connection(), r.counts);
        run.reset();
        clock.lap(kFinish);
        break;
      }
      case mps::WorkloadKind::kDownload: {
        // Mirrors run_scenario: the seed advances before each repetition.
        mps::DownloadParams p = mps::download_params_from_spec(spec_);
        p.telemetry = &tel;
        clock.lap(kBuild);
        for (std::int64_t rep = 0; rep < spec_.workload.runs; ++rep) {
          p.seed += 1;
          auto run = std::make_unique<mps::DownloadRun>(p);
          if (ledger != nullptr) run->set_scheduler(probed_factory(spec_.scheduler, ledger));
          clock.lap(kBuild);
          run->start();
          clock.lap(kStart);
          run->run_to(mps::TimePoint::never());
          clock.lap(kRun);
          clock.note_rss();
          out.download = run->finish();
          out.download_completions.add(out.download.completion.to_seconds());
          r.capped = r.capped || !run->done() || out.download.completion.ns() == 0;
          add_single_connection(run->connection(), r.counts);
          run.reset();
          clock.lap(kFinish);
        }
        break;
      }
      case mps::WorkloadKind::kWeb: {
        // Mirrors run_web. The web runner exposes no connection or link, so
        // its packet count is the meta receiver's per-packet sample count.
        mps::WebRunParams p = mps::web_params_from_spec(spec_);
        p.telemetry = &tel;
        clock.lap(kBuild);
        double page_load_sum = 0.0;
        for (int rep = 0; rep < p.runs; ++rep) {
          auto run = std::make_unique<mps::WebPageRun>(p, rep);
          clock.lap(kBuild);
          run->start();
          clock.lap(kStart);
          run->run_to(mps::TimePoint::never());
          clock.lap(kRun);
          clock.note_rss();
          run->finish(out.web, page_load_sum);
          r.capped = r.capped || !run->done();
          run.reset();
          clock.lap(kFinish);
        }
        out.web.mean_page_load_s = page_load_sum / p.runs;
        r.counts.pkts_delivered = out.web.ooo_delay.count();
        break;
      }
    }
    r.counts.events = tel.events;
    r.counts.sim_s = tel.sim_s;

    if (!spec_.name.empty()) r.text = "scenario: " + spec_.name + "\n";
    r.text += mps::format_outcome(spec_, out);
    if (spec_.record.summarize && spec_.workload.kind == mps::WorkloadKind::kStream) {
      std::ostringstream report;
      recorder->summarize(report);
      r.text += "\n--- flight recorder ---\n" + report.str();
    }
    clock.lap(kFormat);
    return r;
  }

 private:
  mps::ScenarioSpec spec_;
  std::string golden_;
};

// --- crowd_10k: the competing-traffic engine driven directly ------------------

OpResult run_traffic_op(const mps::ScenarioSpec& spec, Ledger* ledger,
                        mps::FlightRecorder* recorder) {
  PhaseClock clock(ledger);
  OpResult r;
  mps::TrafficResult res;
  {
    mps::WorldBuilder builder(spec);
    std::unique_ptr<mps::World> world = builder.build(recorder);
    auto engine = std::make_unique<mps::TrafficEngine>(*world, builder.spec());
    engine->on_flow_end = [&r](mps::Connection& c) { add_connection(c, r.counts); };
    clock.lap(kBuild);
    engine->start();
    clock.lap(kStart);
    mps::Simulator& sim = world->sim();
    sim.run_until(engine->end_time());
    clock.lap(kRun);
    clock.note_rss();
    r.counts.events = sim.events_processed();
    r.counts.sim_s = (sim.now() - mps::TimePoint::origin()).to_seconds();
    engine->finish();
    res = engine->collect();
    std::vector<const mps::Path*> paths;
    for (std::size_t i = 0; i < world->path_count(); ++i) paths.push_back(&world->path(i));
    add_downlinks(paths, r.counts);
    engine.reset();
    world.reset();
  }
  add_traffic_result(res, r.counts);
  clock.lap(kFinish);
  mps::ScenarioOutcome out;
  out.traffic = std::move(res);
  r.text = mps::format_outcome(spec, out);
  clock.lap(kFormat);
  return r;
}

class TrafficCell final : public Cell {
 public:
  TrafficCell(std::string name, mps::ScenarioSpec spec)
      : Cell(std::move(name)), spec_(std::move(spec)) {}
  // Per-flow instruments make a recorder-attached traffic op two orders of
  // magnitude slower, so the recorder overhead is measured on paper_cells.
  bool takes_recorder() const override { return false; }
  OpResult run(Ledger* ledger, mps::FlightRecorder* recorder) override {
    return run_traffic_op(spec_, ledger, recorder);
  }

 private:
  mps::ScenarioSpec spec_;
};

// --- fork_k: run to a snapshot, fork K branches, finish each ------------------

// The path mps_run --snapshot-at=T --fork=K takes. The reference is the
// unforked run: every branch must render exactly its text.
class ForkCell final : public Cell {
 public:
  ForkCell(std::string name, mps::ScenarioSpec spec, double snapshot_s)
      : Cell(std::move(name)), spec_(std::move(spec)), snapshot_s_(snapshot_s) {}

  bool takes_recorder() const override { return false; }  // see TrafficCell
  bool has_reference() const override { return true; }
  bool counts_from_reference() const override { return true; }

  OpResult reference() override {
    OpResult one = run_traffic_op(spec_, nullptr, nullptr);
    OpResult r;
    for (int k = 0; k < kForks; ++k) r.text += one.text;
    r.counts = one.counts;
    r.counts *= kForks;
    return r;
  }

  OpResult run(Ledger* ledger, mps::FlightRecorder* recorder) override {
    PhaseClock clock(ledger);
    OpResult r;
    mps::RunTelemetry tel;
    mps::ScenarioRunOptions opts;
    opts.telemetry = &tel;
    opts.recorder = recorder;
    std::vector<std::unique_ptr<mps::TrafficRun>> branches;
    {
      mps::TrafficRun run(spec_, opts);
      clock.lap(kBuild);
      run.start();
      clock.lap(kStart);
      run.run_to(mps::TimePoint::origin() + mps::Duration::from_seconds(snapshot_s_));
      clock.lap(kRun);
      clock.note_rss();
      for (int k = 0; k < kForks; ++k) branches.push_back(run.fork());
      r.counts.forks = kForks;
    }
    clock.lap(kFork);
    for (std::unique_ptr<mps::TrafficRun>& branch : branches) {
      branch->run_to(branch->engine().end_time());
      clock.lap(kRun);
      mps::ScenarioOutcome out;
      out.traffic = branch->finish();
      add_traffic_result(out.traffic, r.counts);
      branch.reset();
      clock.lap(kFinish);
      r.text += mps::format_outcome(spec_, out);
      clock.lap(kFormat);
    }
    r.counts.events = tel.events;
    r.counts.sim_s = tel.sim_s;
    return r;
  }

 private:
  mps::ScenarioSpec spec_;
  double snapshot_s_;
};

// Deterministic Fisher-Yates over a splitmix64 stream: the seed fixes the
// rotation order of paper_cells independently of the standard library.
template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  std::uint64_t state = seed;
  const auto next = [&state] {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[next() % i]);
}

Workload load_paper_cells(std::uint64_t seed, const fs::path& root, std::int64_t* parse_ns) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(root / "scenarios")) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  Workload w;
  for (const fs::path& file : files) {
    const fs::path golden = root / "tests" / "goldens" / (file.stem().string() + ".golden");
    if (!fs::exists(golden)) continue;
    mps::ScenarioSpec spec = timed_parse(slurp(file), parse_ns);
    if (spec.traffic.enabled) continue;
    // The golden corpus renders presets at smoke scale (tests/golden_test.cpp).
    spec.workload.runs = 1;
    if (spec.workload.kind == mps::WorkloadKind::kStream) spec.workload.video_s = 5.0;
    if (spec.workload.kind == mps::WorkloadKind::kDownload) spec.workload.bytes = 65536;
    w.cells.push_back(
        std::make_unique<PresetCell>(file.stem().string(), std::move(spec), slurp(golden)));
  }
  if (w.cells.empty()) throw std::runtime_error("no presets with goldens under " + root.string());
  shuffle(w.cells, seed);
  return w;
}

}  // namespace

mps::ScenarioSpec crowd_spec(std::int64_t flows, double duration_s, std::uint64_t seed) {
  // The bench_scale cell shape: capacity scaled per flow (~24 kbps on each
  // path), 5%/s Poisson churn, exponential sizes.
  mps::ScenarioSpec spec;
  spec.name = "crowd_" + std::to_string(flows);
  const double mbps = static_cast<double>(flows) * 0.024;
  spec.paths = {mps::wifi_path(mbps), mps::lte_path(mbps)};
  spec.scheduler = "default";
  spec.traffic.enabled = true;
  spec.traffic.flows = flows;
  spec.traffic.arrival_rate_per_s = static_cast<double>(flows) * 0.05;
  spec.traffic.max_arrivals = std::max<std::int64_t>(flows / 10, 16);
  spec.traffic.flow_bytes = 256 * 1024;
  spec.traffic.size_dist = "exponential";
  spec.traffic.duration_s = duration_s;
  spec.seed = seed;
  return spec;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"paper_cells", "crowd_10k", "fork_k"};
  return kNames;
}

Workload load_workload(const std::string& name, std::uint64_t seed, const std::string& root,
                       std::int64_t* parse_ns) {
  if (name == "paper_cells") return load_paper_cells(seed, root, parse_ns);
  // The generated specs go through the same text round trip a spec file does.
  Workload w;
  if (name == "crowd_10k") {
    const std::string text = mps::serialize_scenario(crowd_spec(10'000, 1.0, seed));
    w.cells.push_back(std::make_unique<TrafficCell>(name, timed_parse(text, parse_ns)));
  } else if (name == "fork_k") {
    const std::string text = mps::serialize_scenario(crowd_spec(1'000, 4.0, seed));
    w.cells.push_back(std::make_unique<ForkCell>(name, timed_parse(text, parse_ns), 2.0));
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace perfbench
