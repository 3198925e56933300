// Regenerates every table, figure and ablation of the paper's evaluation
// (DESIGN.md §3) from one table of declared cells (bench/suite.h); each
// distinct cell runs once.
//
//   paper_suite [--prof-out FILE] [section...]
//
// With no section every section prints, in table order; otherwise only the
// named ones (e.g. `paper_suite bench_fig09_scheduler_heatmaps`), still in
// table order. MPS_BENCH_SCALE picks the scale and MPS_BENCH_JOBS the worker
// count; stdout is the same at any worker count. A summary of declared and
// distinct cells goes to stderr. Exits 2 on an unknown section name.
//
// --prof-out FILE writes a ProfileReport (exp/prof_report.h) with the
// sweep's per-worker busy/wait/idle telemetry; stdout is byte-identical with
// or without it.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench/suite.h"
#include "exp/prof_report.h"
#include "obs/prof.h"

int main(int argc, char** argv) {
  using namespace mps;
  using namespace mps::bench;
  const auto wall_start = std::chrono::steady_clock::now();
  std::string prof_out;
  std::vector<std::string> names;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--prof-out" && i + 1 < argc) {
      prof_out = argv[++i];
    } else {
      names.push_back(arg);
    }
  }
  Suite suite;
  try {
    suite = plan_suite(names);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "paper_suite: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "paper_suite: %zu sections, %zu cells declared, %zu distinct runs\n",
               suite.plans.size(), suite.declared(), suite.runs.size());
  SweepTelemetry telemetry;
  run_suite(suite, &telemetry);
  if (!prof_out.empty()) {
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    ProfileReport report = build_profile_report(prof::snapshot(), wall_s);
    add_sweep_telemetry(report, telemetry);
    std::ofstream pf(prof_out);
    pf << profile_report_to_json(report).dump(2) << "\n";
    if (!pf) {
      std::fprintf(stderr, "paper_suite: cannot write %s\n", prof_out.c_str());
      return 1;
    }
  }
  return 0;
}
