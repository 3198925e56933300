// Tests for src/util: time/rate strong types, RNG determinism, statistics.
#include <gtest/gtest.h>

#include <cmath>

#include "util/rate.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time.h"

namespace mps {
namespace {

// --- Duration / TimePoint ---------------------------------------------------

TEST(DurationTest, Constructors) {
  EXPECT_EQ(Duration::millis(3).ns(), 3'000'000);
  EXPECT_EQ(Duration::micros(5).ns(), 5'000);
  EXPECT_EQ(Duration::seconds(2).ns(), 2'000'000'000);
  EXPECT_EQ(Duration::from_seconds(0.5).ns(), 500'000'000);
  EXPECT_EQ(Duration::zero().ns(), 0);
}

TEST(DurationTest, RoundsToNearestNanosecond) {
  EXPECT_EQ(Duration::from_seconds(1e-9 * 0.4).ns(), 0);
  EXPECT_EQ(Duration::from_seconds(1e-9 * 0.6).ns(), 1);
  EXPECT_EQ(Duration::from_seconds(-1e-9 * 0.6).ns(), -1);
}

TEST(DurationTest, Arithmetic) {
  const Duration a = Duration::millis(10);
  const Duration b = Duration::millis(4);
  EXPECT_EQ((a + b).ns(), Duration::millis(14).ns());
  EXPECT_EQ((a - b).ns(), Duration::millis(6).ns());
  EXPECT_EQ((a * std::int64_t{3}).ns(), Duration::millis(30).ns());
  EXPECT_EQ((a / std::int64_t{2}).ns(), Duration::millis(5).ns());
  EXPECT_DOUBLE_EQ(a / b, 2.5);
  EXPECT_NEAR((a * 1.5).to_seconds(), 0.015, 1e-12);
}

TEST(DurationTest, Comparisons) {
  EXPECT_LT(Duration::millis(1), Duration::millis(2));
  EXPECT_EQ(Duration::seconds(1), Duration::millis(1000));
  EXPECT_TRUE(Duration::infinite().is_infinite());
  EXPECT_GT(Duration::infinite(), Duration::seconds(1'000'000));
}

TEST(DurationTest, Strings) {
  EXPECT_EQ(Duration::seconds(2).str(), "2.000s");
  EXPECT_EQ(Duration::millis(3).str(), "3.000ms");
  EXPECT_EQ(Duration::nanos(42).str(), "42ns");
  EXPECT_EQ(Duration::infinite().str(), "inf");
}

TEST(TimePointTest, Arithmetic) {
  const TimePoint t = TimePoint::origin() + Duration::seconds(5);
  EXPECT_EQ(t.ns(), 5'000'000'000);
  EXPECT_EQ((t - TimePoint::origin()).ns(), Duration::seconds(5).ns());
  EXPECT_EQ((t - Duration::seconds(1)).ns(), 4'000'000'000);
  EXPECT_TRUE(TimePoint::never().is_never());
  EXPECT_GT(TimePoint::never(), t);
}

// --- Rate --------------------------------------------------------------------

TEST(RateTest, TransmitTime) {
  const Rate r = Rate::mbps(8);
  // 1000 bytes = 8000 bits at 8 Mbps -> 1 ms.
  EXPECT_EQ(r.transmit_time(1000).ns(), Duration::millis(1).ns());
  EXPECT_TRUE(Rate::zero().transmit_time(1).is_infinite());
}

TEST(RateTest, BytesOver) {
  EXPECT_DOUBLE_EQ(Rate::mbps(8).bytes_over(Duration::seconds(1)), 1e6);
}

TEST(RateTest, RateOf) {
  EXPECT_DOUBLE_EQ(rate_of(1'000'000, Duration::seconds(1)).to_mbps(), 8.0);
  EXPECT_TRUE(rate_of(100, Duration::zero()).is_zero());
}

// --- Rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  int counts[10] = {};
  for (int i = 0; i < 100000; ++i) {
    const auto v = rng.uniform_int(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(40.0);
  EXPECT_NEAR(sum / n, 40.0, 0.5);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  RunningStats st;
  for (int i = 0; i < 200000; ++i) st.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(st.mean(), 5.0, 0.05);
  EXPECT_NEAR(st.stddev(), 2.0, 0.05);
}

TEST(RngTest, ForkIndependence) {
  Rng a(99);
  Rng child = a.fork();
  // The fork must not replay the parent stream.
  EXPECT_NE(a.next_u64(), child.next_u64());
}

// --- RunningStats ---------------------------------------------------------------

TEST(RunningStatsTest, Basics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

// --- WindowedStats ---------------------------------------------------------------

TEST(WindowedStatsTest, WindowEviction) {
  WindowedStats w(4);
  for (double x : {1.0, 2.0, 3.0, 4.0}) w.add(x);
  EXPECT_DOUBLE_EQ(w.mean(), 2.5);
  w.add(5.0);  // evicts 1.0
  EXPECT_DOUBLE_EQ(w.mean(), 3.5);
  EXPECT_EQ(w.count(), 4u);
}

TEST(WindowedStatsTest, StddevMatchesSample) {
  WindowedStats w(8);
  for (double x : {2.0, 4.0, 6.0, 8.0}) w.add(x);
  // Sample stddev of {2,4,6,8} = sqrt(20/3).
  EXPECT_NEAR(w.stddev(), std::sqrt(20.0 / 3.0), 1e-9);
}

TEST(WindowedStatsTest, SingleSampleZeroStddev) {
  WindowedStats w(8);
  w.add(3.0);
  EXPECT_DOUBLE_EQ(w.stddev(), 0.0);
}

// --- Samples ----------------------------------------------------------------------

TEST(SamplesTest, Quantiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.99), 99.01, 1e-9);
}

TEST(SamplesTest, CdfCcdf) {
  Samples s;
  for (double x : {1.0, 2.0, 2.0, 3.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.cdf_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(2.0), 0.75);
  EXPECT_DOUBLE_EQ(s.ccdf_at(2.0), 0.25);
  EXPECT_DOUBLE_EQ(s.cdf_at(10.0), 1.0);
}

TEST(SamplesTest, MergeCombines) {
  Samples a, b;
  a.add(1.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(SamplesTest, AddAfterSortedQuery) {
  Samples s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  s.add(9.0);  // must invalidate the sorted cache
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

}  // namespace
}  // namespace mps
