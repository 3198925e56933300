// The paper suite's cell table (bench/suite.h), planned without running a
// simulation: the sections and their order, the dedupe key, and the rule
// that a cell with code options never shares a run. One test does run the
// two time-series sections (Figs. 3 and 11/12) and pins their output.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/scale.h"
#include "bench/suite.h"
#include "test_util.h"

namespace mps::bench {
namespace {

// DESIGN.md §3 order; each name is the standalone binary the section replaced.
const std::vector<std::string> kSectionNames = {
    "bench_fig02_motivation_heatmap",
    "bench_fig03_sndbuf_trace",
    "bench_fig05_lastpacket_cdf",
    "bench_fig06_cwnd_reset",
    "bench_fig07_traffic_split_default",
    "bench_tab02_rtt",
    "bench_fig09_scheduler_heatmaps",
    "bench_fig10_traffic_split",
    "bench_fig11_12_cwnd_traces",
    "bench_tab03_iw_resets",
    "bench_fig13_ooo_default",
    "bench_fig14_ooo_schedulers",
    "bench_fig15_four_subflows",
    "bench_fig16_random_bw",
    "bench_fig17_chunk_trace",
    "bench_fig18_wget",
    "bench_fig19_wget_ratio",
    "bench_fig20_web_completion",
    "bench_fig21_web_ooo",
    "bench_fig22_wild_streaming",
    "bench_fig23_tab4_wild_web",
    "bench_ablation_cc",
    "bench_ablation_ecf",
    "bench_ablation_staging",
};

TEST(PaperSuiteTest, SectionsAreTheOldBinariesInTableOrder) {
  std::vector<std::string> names;
  for (const Section& s : paper_sections()) names.emplace_back(s.name);
  EXPECT_EQ(names, kSectionNames);
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(), 24u);
}

TEST(PaperSuiteTest, MergeableCellKeysParseBackToTheirSpec) {
  const Suite suite = plan_suite({});
  for (std::size_t p = 0; p < suite.plans.size(); ++p) {
    for (const Cell& cell : suite.plans[p].cells) {
      if (!cell.mergeable()) continue;
      EXPECT_EQ(parse_scenario(serialize_scenario(cell.spec)), cell.spec)
          << suite.sections[p]->name;
    }
  }
}

TEST(PaperSuiteTest, CellsWithOptionsNeverShareARun) {
  const Suite suite = plan_suite({});
  std::vector<int> uses(suite.runs.size(), 0);
  for (const auto& runs : suite.run_of) {
    for (std::size_t run : runs) ++uses[run];
  }
  int with_options = 0;
  for (std::size_t p = 0; p < suite.plans.size(); ++p) {
    const std::vector<Cell>& cells = suite.plans[p].cells;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].mergeable()) continue;
      ++with_options;
      EXPECT_EQ(uses[suite.run_of[p][c]], 1) << suite.sections[p]->name << " cell " << c;
    }
  }
  // fig11/12's four recorder cells and ablation_ecf's ten beta overrides,
  // whose five specs per configuration are identical.
  EXPECT_EQ(with_options, 14);
}

TEST(PaperSuiteTest, EqualSpecsShareOneRun) {
  const Suite suite = plan_suite({});
  EXPECT_LT(suite.runs.size(), suite.declared());
  for (std::size_t p = 0; p < suite.plans.size(); ++p) {
    for (std::size_t c = 0; c < suite.plans[p].cells.size(); ++c) {
      const Cell& cell = suite.plans[p].cells[c];
      const Cell& run = suite.cell(suite.runs[suite.run_of[p][c]]);
      EXPECT_EQ(run.spec, cell.spec) << suite.sections[p]->name << " cell " << c;
    }
  }
}

TEST(PaperSuiteTest, NamedSectionsPlanInTableOrder) {
  const Suite suite = plan_suite({"bench_ablation_cc", "bench_fig02_motivation_heatmap"});
  ASSERT_EQ(suite.sections.size(), 2u);
  EXPECT_STREQ(suite.sections[0]->name, "bench_fig02_motivation_heatmap");
  EXPECT_STREQ(suite.sections[1]->name, "bench_ablation_cc");
  EXPECT_THROW(plan_suite({"bench_fig08"}), std::invalid_argument);
}

// Figs. 3 and 11/12 at quick scale, byte for byte: the send-buffer and CWND
// series, their bucketing and the four flight-recorder summaries. Refresh
// after an intended change with
//   MPS_UPDATE_GOLDENS=1 ./build/tests/paper_suite_test
// and review the diff.
TEST(PaperSuiteTest, TracedSectionsMatchGolden) {
  ASSERT_EQ(bench_scale().name, "quick") << "the golden is recorded at quick scale";
  const std::filesystem::path golden =
      std::filesystem::path(MPS_SOURCE_DIR) / "tests" / "data" / "paper_suite_traced.golden";
  ::testing::internal::CaptureStdout();
  run_suite(plan_suite({"bench_fig03_sndbuf_trace", "bench_fig11_12_cwnd_traces"}));
  std::cout.flush();
  std::fflush(stdout);
  const std::string actual = ::testing::internal::GetCapturedStdout();
  const char* update = std::getenv("MPS_UPDATE_GOLDENS");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream(golden, std::ios::binary) << actual;
    return;
  }
  EXPECT_EQ(slurp(golden), actual) << "output drifted from " << golden;
}

}  // namespace
}  // namespace mps::bench
