// Regenerates every table, figure and ablation of the paper's evaluation
// (DESIGN.md §3) from one table of declared cells (bench/suite.h); each
// distinct cell runs once.
//
//   paper_suite [section...]
//
// With no argument every section prints, in table order; otherwise only the
// named ones (e.g. `paper_suite bench_fig09_scheduler_heatmaps`), still in
// table order. MPS_BENCH_SCALE picks the scale and MPS_BENCH_JOBS the worker
// count; stdout is the same at any worker count. A summary of declared and
// distinct cells goes to stderr. Exits 2 on an unknown section name.
#include <cstdio>
#include <stdexcept>

#include "bench/suite.h"

int main(int argc, char** argv) {
  using namespace mps::bench;
  Suite suite;
  try {
    suite = plan_suite({argv + 1, argv + argc});
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "paper_suite: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "paper_suite: %zu sections, %zu cells declared, %zu distinct runs\n",
               suite.plans.size(), suite.declared(), suite.runs.size());
  run_suite(suite);
  return 0;
}
