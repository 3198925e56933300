// The paper suite as one table. Every figure, table and ablation of the
// paper's evaluation is one Section: its cells() step declares the runs it
// needs as ScenarioSpec cells and returns the render() step that prints them.
// The driver keys each cell by serialize_scenario(spec) (injective on specs:
// parse(serialize(s)) == s field for field), runs every distinct key once over
// one sweep, and renders the sections in table order. A cell whose options
// carry code (a scheduler override, a caller-owned recorder) is never merged.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exp/scenario_run.h"
#include "exp/sweep.h"

namespace mps::bench {

struct Cell {
  Cell(ScenarioSpec s, ScenarioRunOptions o = {}) : spec(std::move(s)), opts(std::move(o)) {}

  ScenarioSpec spec;
  ScenarioRunOptions opts;

  bool mergeable() const { return !opts.scheduler_override && opts.recorder == nullptr; }
};

// A section's outcomes, one per declared cell, in declaration order.
using Outcomes = std::vector<const ScenarioOutcome*>;

// What a section's cells() step returns. render() prints to stdout exactly
// what the section's old standalone binary printed after its header.
struct Plan {
  std::vector<Cell> cells;
  std::function<void(const Outcomes&)> render;
};

struct Section {
  const char* name;   // the section's old binary name; print_header prints it
  const char* title;  // the paper artifact it regenerates
  Plan (*cells)();
};

// Every section, in DESIGN.md §3 order.
const std::vector<Section>& paper_sections();

// The selected sections' plans, with each declared cell mapped to the
// distinct run that computes it.
struct Suite {
  struct CellRef {
    std::size_t plan, cell;
  };
  std::vector<const Section*> sections;
  std::vector<Plan> plans;                       // one per section
  std::vector<CellRef> runs;                     // distinct runs, first declaration each
  std::vector<std::vector<std::size_t>> run_of;  // [plan][cell] -> index into runs

  const Cell& cell(CellRef ref) const { return plans[ref.plan].cells[ref.cell]; }
  std::size_t declared() const;
};

// Plans the named sections in table order, or every section when `names` is
// empty. Throws std::invalid_argument on an unknown name.
Suite plan_suite(const std::vector<std::string>& names);

// Runs each distinct cell once over one sweep (MPS_BENCH_JOBS workers), then
// prints each section's header and renders it, in table order. `telemetry`
// (optional) receives the sweep's per-worker accounting.
void run_suite(const Suite& suite, SweepTelemetry* telemetry = nullptr);

}  // namespace mps::bench
