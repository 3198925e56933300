// Tests of the benchmark's ops: the probes it inserts must not change what
// the simulator computes.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "exp/scenario_run.h"
#include "exp/streaming.h"
#include "obs/recorder.h"
#include "ops.h"

namespace perfbench {
namespace {

const std::string kRoot = MPS_ROOT_DIR;

// Every cell of every workload renders the same text, with the same model
// counts, whether it runs traced (phase clock + scheduler probe), untraced,
// or with a recorder attached; and it matches its reference when it has one.
TEST(PerfbenchOps, TracedOutcomesEqualUntraced) {
  for (const std::string& name : workload_names()) {
    Workload w = load_workload(name, 1, kRoot, nullptr);
    for (auto& cell : w.cells) {
      SCOPED_TRACE(name + "/" + cell->name());
      const OpResult plain = cell->run(nullptr, nullptr);
      Ledger ledger;
      const OpResult traced = cell->run(&ledger, nullptr);
      EXPECT_FALSE(plain.capped);
      EXPECT_EQ(plain.text, traced.text);
      EXPECT_EQ(plain.counts, traced.counts);
      EXPECT_GT(ledger.ns[kRun], 0);
      if (cell->takes_recorder()) {
        mps::FlightRecorder recorder;
        EXPECT_EQ(plain.text, cell->run(nullptr, &recorder).text);
      }
      if (cell->has_reference()) {
        EXPECT_EQ(cell->reference().text, plain.text);
      }
    }
  }
}

TEST(PerfbenchOps, ForksOnlyOnForkWorkload) {
  for (const std::string& name : workload_names()) {
    Workload w = load_workload(name, 1, kRoot, nullptr);
    Ledger ledger;
    const OpResult r = w.cells.front()->run(&ledger, nullptr);
    if (name == "fork_k") {
      EXPECT_EQ(r.counts.forks, static_cast<std::uint64_t>(kForks));
      EXPECT_GT(ledger.ns[kFork], 0);
    } else {
      EXPECT_EQ(r.counts.forks, 0u);
      EXPECT_EQ(ledger.ns[kFork], 0);
    }
  }
}

mps::ScenarioSpec stream_spec(const std::string& scheduler) {
  mps::ScenarioSpec spec;
  spec.paths = {mps::wifi_path(0.3), mps::lte_path(8.6)};
  spec.scheduler = scheduler;
  spec.workload.video_s = 10.0;
  return spec;
}

// The decorator is transparent through a snapshot-and-fork: forking a probed
// run mid-stream and finishing the fork gives the unprobed, unforked result,
// and the probe saw the picks.
TEST(PerfbenchOps, SchedProbeIsTransparentThroughAFork) {
  for (const std::string scheduler : {"default", "ecf", "blest", "daps"}) {
    SCOPED_TRACE(scheduler);
    const mps::ScenarioSpec spec = stream_spec(scheduler);
    mps::ScenarioOutcome plain;
    plain.streaming = mps::run_streaming(spec);

    Ledger ledger;
    mps::ScenarioRunOptions opts;
    opts.scheduler_override = probed_factory(scheduler, &ledger);
    mps::StreamingRun run(mps::streaming_params_from_spec(spec, opts));
    run.start();
    run.run_to(mps::TimePoint::origin() + mps::Duration::seconds(4));
    std::unique_ptr<mps::StreamingRun> fork = run.fork();
    mps::ScenarioOutcome forked;
    forked.streaming = fork->finish();

    EXPECT_EQ(mps::format_outcome(spec, plain), mps::format_outcome(spec, forked));
    EXPECT_GT(ledger.picks, 0u);
    EXPECT_LE(ledger.empty_picks, ledger.picks);
    EXPECT_STREQ(fork->connection().scheduler().name(), scheduler.c_str());
  }
}

TEST(PerfbenchOps, SeedPermutesPaperCellsOnly) {
  Workload a = load_workload("paper_cells", 1, kRoot, nullptr);
  Workload b = load_workload("paper_cells", 2, kRoot, nullptr);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  bool same_order = true;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    same_order = same_order && a.cells[i]->name() == b.cells[i]->name();
  }
  EXPECT_FALSE(same_order);
  Workload again = load_workload("paper_cells", 1, kRoot, nullptr);
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i]->name(), again.cells[i]->name());
  }
}

TEST(PerfbenchOps, ParseTimeIsMeasured) {
  std::int64_t parse_ns = 0;
  load_workload("crowd_10k", 3, kRoot, &parse_ns);
  EXPECT_GT(parse_ns, 0);
  EXPECT_THROW(load_workload("nope", 1, kRoot, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
