// mps_perf: runs one benchmark workload for a fixed wall-clock budget and
// prints one JSON record of raw measurements on stdout (perfbench/run.py
// turns it into metrics).
//
//   mps_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--root DIR]
//
// Set-up (reading and parsing the workload's inputs) runs once, timed.
// Identical ops then run back to back, closed loop, single thread, until
// the budget is spent; paper_cells rotates through its
// presets one full pass at a time. Every op's rendered outcome
// is compared byte-for-byte with its reference, and its model counts with
// the cell's first op. With --trace 1 each op also records its phase split
// (ops.h Ledger), and when some cell accepts a FlightRecorder the last
// quarter of the budget alternates its ops with and without one attached.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "obs/recorder.h"
#include "ops.h"
#include "scenario/json.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using mps::Json;

constexpr std::size_t kMaxFailureNotes = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
};

// Per-cell measurements and the outcome check state.
struct CellLog {
  std::vector<std::int64_t> op_ns;
  std::vector<Ledger> ledgers;  // traced runs only, parallel to op_ns
  std::vector<std::int64_t> rec_on_ns, rec_off_ns;
  bool have_first = false;
  std::string first_text;
  Counts first_counts;
  std::size_t like_first = 0;  // ops whose text and counts equal the first op's
};

struct Run {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < kMaxFailureNotes) failures.push_back(what);
  }
};

std::int64_t since(Clock::time_point t0) { return (Clock::now() - t0).count(); }

// Runs one op and checks it; returns its wall time, or -1 if it threw.
std::int64_t run_op(Cell& cell, CellLog& log, Run& run, Ledger* ledger,
                    mps::FlightRecorder* recorder) {
  ++run.attempted;
  OpResult r;
  const auto t0 = Clock::now();
  try {
    r = cell.run(ledger, recorder);
  } catch (const std::exception& e) {
    run.fail(cell.name() + ": threw: " + e.what());
    return -1;
  }
  const std::int64_t ns = since(t0);
  if (!log.have_first) {
    log.have_first = true;
    log.first_text = r.text;
    log.first_counts = r.counts;
  }
  if (r.capped) {
    run.fail(cell.name() + ": capped or incomplete");
  } else if (r.text != log.first_text) {
    run.fail(cell.name() + ": outcome differs from the first op");
  } else if (!(r.counts == log.first_counts)) {
    run.fail(cell.name() + ": model counts differ from the first op");
  } else {
    ++log.like_first;
  }
  return ns;
}

Json ints(const std::vector<std::int64_t>& v) {
  Json a = Json::array();
  for (const std::int64_t x : v) a.push_back(Json::number(x));
  return a;
}

Json counts_json(const Counts& c) {
  Json j = Json::object();
  const auto put = [&j](const char* k, std::uint64_t v) {
    j.set(k, Json::number(static_cast<std::int64_t>(v)));
  };
  put("events", c.events);
  j.set("sim_s", Json::number(c.sim_s));
  put("pkts_delivered", c.pkts_delivered);
  put("wire_bytes", c.wire_bytes);
  put("drops", c.drops);
  put("max_queue_depth", c.max_queue_depth);
  put("mux_orphans", c.mux_orphans);
  put("fault_drops", c.fault_drops);
  put("fault_reordered", c.fault_reordered);
  put("segments_sent", c.segments_sent);
  put("retransmits", c.retransmits);
  put("rto_events", c.rto_events);
  put("segments_scheduled", c.segments_scheduled);
  put("reinjections", c.reinjections);
  put("duplicates", c.duplicates);
  put("window_stalls", c.window_stalls);
  put("app_bytes", c.app_bytes);
  put("flows_started", c.flows_started);
  put("flows_completed", c.flows_completed);
  put("forks", c.forks);
  return j;
}

Json ledgers_json(const std::vector<Ledger>& ledgers) {
  Json j = Json::object();
  for (int p = 0; p < kPhaseCount; ++p) {
    std::vector<std::int64_t> v;
    for (const Ledger& l : ledgers) v.push_back(l.ns[p]);
    j.set(phase_name(p), ints(v));
  }
  std::vector<std::int64_t> picks, empty, pick_ns, rss;
  for (const Ledger& l : ledgers) {
    picks.push_back(static_cast<std::int64_t>(l.picks));
    empty.push_back(static_cast<std::int64_t>(l.empty_picks));
    pick_ns.push_back(l.pick_ns);
    rss.push_back(l.rss_growth_bytes);
  }
  j.set("picks", ints(picks));
  j.set("empty_picks", ints(empty));
  j.set("pick_ns", ints(pick_ns));
  j.set("rss_growth_bytes", ints(rss));
  return j;
}

int bench(const Args& a) {
  // Set-up is timed once, cold, as a user meets it; run.py takes the median
  // over the run's processes.
  std::int64_t parse_ns = 0;
  const auto setup_start = Clock::now();
  Workload w = load_workload(a.workload, a.seed, a.root, &parse_ns);
  const std::int64_t setup_ns = since(setup_start);

  Run run;
  std::vector<CellLog> logs(w.cells.size());
  // Fixed capacity, so the vector's growth does not show in peak_rss_mb.
  for (CellLog& log : logs) log.op_ns.reserve(1 << 20);
  bool recorder_pass = false;
  for (const auto& cell : w.cells) recorder_pass = recorder_pass || cell->takes_recorder();
  recorder_pass = recorder_pass && a.trace;
  const auto budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(a.seconds * (recorder_pass ? 0.75 : 1.0)));
  const auto start = Clock::now();
  do {
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      Ledger ledger;
      Ledger* traced = a.trace ? &ledger : nullptr;
      const std::int64_t ns = run_op(*w.cells[i], logs[i], run, traced, nullptr);
      if (ns < 0) continue;
      logs[i].op_ns.push_back(ns);
      if (a.trace) logs[i].ledgers.push_back(ledger);
    }
  } while (Clock::now() - start < budget);

  if (recorder_pass) {
    // Recorder overhead: alternate with/without, flipping the order each round.
    const auto rec_budget = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(a.seconds * 0.25));
    const auto rec_start = Clock::now();
    bool on_first = true;
    do {
      for (std::size_t i = 0; i < w.cells.size(); ++i) {
        if (!w.cells[i]->takes_recorder()) continue;
        for (const bool on : {on_first, !on_first}) {
          const auto t0 = Clock::now();
          mps::FlightRecorder recorder;
          const std::int64_t ns =
              run_op(*w.cells[i], logs[i], run, nullptr, on ? &recorder : nullptr);
          if (ns >= 0) (on ? logs[i].rec_on_ns : logs[i].rec_off_ns).push_back(since(t0));
        }
      }
      on_first = !on_first;
    } while (Clock::now() - rec_start < rec_budget);
  }

  // References that need the simulator are produced after the measured window.
  std::vector<Counts> counts;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    Cell& cell = *w.cells[i];
    const CellLog& log = logs[i];
    counts.push_back(log.first_counts);
    if (!cell.has_reference()) continue;
    const OpResult ref = cell.reference();
    if (log.have_first && ref.text != log.first_text) {
      for (std::size_t k = 0; k < log.like_first; ++k) {
        run.fail(cell.name() + ": outcome differs from the reference");
      }
    }
    if (cell.counts_from_reference()) {
      counts.back() = ref.counts;
      counts.back().forks = log.first_counts.forks;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);  // before the report below allocates

  Json cells = Json::array();
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const CellLog& log = logs[i];
    Json c = Json::object();
    c.set("name", Json::string(w.cells[i]->name()));
    c.set("op_ns", ints(log.op_ns));
    c.set("counts", counts_json(counts[i]));
    // run.py compares it across the processes of one run.
    c.set("text_hash",
          Json::number(static_cast<std::int64_t>(std::hash<std::string>{}(log.first_text))));
    if (a.trace) {
      c.set("ledger", ledgers_json(log.ledgers));
      c.set("rec_on_ns", ints(log.rec_on_ns));
      c.set("rec_off_ns", ints(log.rec_off_ns));
    }
    cells.push_back(std::move(c));
  }

  Json out = Json::object();
  out.set("workload", Json::string(a.workload));
  out.set("seed", Json::number(static_cast<std::int64_t>(a.seed)));
  out.set("trace", Json::boolean(a.trace));
  out.set("compiler", Json::string(__VERSION__));
  out.set("build_type", Json::string(PERFBENCH_BUILD_TYPE));
  out.set("setup_ns", ints({setup_ns}));
  out.set("parse_ns", ints({parse_ns}));
  out.set("attempted", Json::number(static_cast<std::int64_t>(run.attempted)));
  out.set("failed", Json::number(static_cast<std::int64_t>(run.failed)));
  Json notes = Json::array();
  for (const std::string& f : run.failures) notes.push_back(Json::string(f));
  out.set("failures", std::move(notes));
  out.set("peak_rss_kb", Json::number(static_cast<std::int64_t>(ru.ru_maxrss)));
  out.set("cells", std::move(cells));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: mps_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] "
               "[--root DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = val == "1";
      else if (key == "--root") a.root = val;
      else return perfbench::usage();
    }
    if (argc % 2 == 0 || a.workload.empty() || !(a.seconds > 0)) return perfbench::usage();
    return perfbench::bench(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mps_perf: %s\n", e.what());
    return 1;
  }
}
