// Tests for what only the benches use (bench/emit.h, bench/scale.h): the text
// renderers and the bench scale.
#include <gtest/gtest.h>

#include <sstream>

#include "bench/emit.h"
#include "bench/scale.h"

namespace mps {
namespace {

TEST(ScaleTest, DefaultsAreQuick) {
  // The env var is unset (or quick) in the test harness; defaults must be
  // the fast configuration and the note must mention the switch.
  const BenchScale& s = bench_scale();
  EXPECT_GE(s.streaming_runs, 1);
  EXPECT_NE(scale_note().find("MPS_BENCH_SCALE"), std::string::npos);
}

TEST(EmitTest, HeatmapContainsLabelsAndShades) {
  std::ostringstream os;
  print_heatmap(os, "Test map", "lte", "wifi", {"0.3", "8.6"}, {"0.3", "8.6"},
                [](std::size_t r, std::size_t c) { return r == c ? 1.0 : 0.1; });
  const std::string out = os.str();
  EXPECT_NE(out.find("Test map"), std::string::npos);
  EXPECT_NE(out.find("8.6"), std::string::npos);
  EXPECT_NE(out.find("1.00#"), std::string::npos);  // dark shade for 1.0
  EXPECT_NE(out.find("0.10"), std::string::npos);
}

TEST(EmitTest, DistributionPrintsCcdfValues) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i * 0.01);
  std::ostringstream os;
  print_distribution(os, "dist", "delay", {{"x", &s}}, /*ccdf=*/true, {0.5, 1.0});
  const std::string out = os.str();
  EXPECT_NE(out.find("CCDF"), std::string::npos);
  EXPECT_NE(out.find("0.50000"), std::string::npos);  // P(X > 0.5)
}

TEST(EmitTest, MakeXGridCoversQuantileCap) {
  Samples s;
  for (int i = 1; i <= 1000; ++i) s.add(static_cast<double>(i));
  const auto grid = make_x_grid({{"s", &s}}, 10, 0.999);
  ASSERT_EQ(grid.size(), 10u);
  EXPECT_NEAR(grid.back(), 999.0, 1.5);
  EXPECT_LT(grid.front(), grid.back());
}

TEST(EmitTest, GroupedTableShape) {
  std::ostringstream os;
  print_grouped(os, "tbl", "pair", {"0.3-8.6", "8.6-8.6"}, {"default", "ecf"},
                [](std::size_t g, std::size_t s) { return static_cast<double>(g * 10 + s); });
  const std::string out = os.str();
  EXPECT_NE(out.find("0.3-8.6"), std::string::npos);
  EXPECT_NE(out.find("ecf"), std::string::npos);
  EXPECT_NE(out.find("11.000"), std::string::npos);
}

TEST(EmitTest, TraceBucketsSeries) {
  TimeSeries ts;
  ts.add(TimePoint::from_ns(0), 5.0);
  std::ostringstream os;
  print_trace(os, "trace", {{"cwnd", &ts}}, Duration::seconds(1), TimePoint::origin(),
              TimePoint::origin() + Duration::seconds(3));
  const std::string out = os.str();
  EXPECT_NE(out.find("cwnd"), std::string::npos);
  EXPECT_NE(out.find("5.00"), std::string::npos);
}

TEST(EmitTest, HeaderMentionsScale) {
  std::ostringstream os;
  print_header(os, "bench_fig09", "paper Fig. 9", "quick scale");
  const std::string out = os.str();
  EXPECT_NE(out.find("bench_fig09"), std::string::npos);
  EXPECT_NE(out.find("paper Fig. 9"), std::string::npos);
  EXPECT_NE(out.find("quick scale"), std::string::npos);
}

}  // namespace
}  // namespace mps
