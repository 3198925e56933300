// Tests for the parallel sweep engine: index-ordered collection, inline
// serial path, exception propagation, MPS_BENCH_JOBS resolution, and the
// headline property — a parallel sweep is bit-identical to a serial one.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "check/stress.h"
#include "exp/streaming.h"
#include "exp/sweep.h"
#include "test_util.h"

namespace mps {
namespace {

// Restores MPS_BENCH_JOBS on scope exit so tests can't leak env state.
class ScopedJobsEnv {
 public:
  explicit ScopedJobsEnv(const char* value) {
    const char* old = std::getenv("MPS_BENCH_JOBS");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value) {
      ::setenv("MPS_BENCH_JOBS", value, 1);
    } else {
      ::unsetenv("MPS_BENCH_JOBS");
    }
  }
  ~ScopedJobsEnv() {
    if (had_old_) {
      ::setenv("MPS_BENCH_JOBS", old_.c_str(), 1);
    } else {
      ::unsetenv("MPS_BENCH_JOBS");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

TEST(SweepTest, JobsEnvOverridesHardwareConcurrency) {
  ScopedJobsEnv env("3");
  EXPECT_EQ(sweep_jobs(), 3);
}

TEST(SweepTest, JobsEnvInvalidFallsBackToHardware) {
  ScopedJobsEnv env("0");
  EXPECT_GE(sweep_jobs(), 1);
  ScopedJobsEnv env2("notanumber");
  EXPECT_GE(sweep_jobs(), 1);
}

TEST(SweepTest, JobsUnsetUsesHardwareConcurrency) {
  ScopedJobsEnv env(nullptr);
  EXPECT_GE(sweep_jobs(), 1);
}

TEST(SweepTest, MapCollectsResultsInIndexOrder) {
  SweepOptions opts;
  opts.jobs = 4;
  const auto out = sweep_map<int>(
      37, [](std::size_t i) { return static_cast<int>(i * i); }, opts);
  ASSERT_EQ(out.size(), 37u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(SweepTest, EachCellRunsExactlyOnce) {
  SweepOptions opts;
  opts.jobs = 4;
  std::vector<std::atomic<int>> hits(64);
  SweepRunner runner(opts);
  runner.run(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SweepTest, SingleJobRunsInlineOnCallingThread) {
  SweepOptions opts;
  opts.jobs = 1;
  const auto caller = std::this_thread::get_id();
  SweepRunner runner(opts);
  EXPECT_EQ(runner.jobs(), 1);
  runner.run(8, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(SweepTest, CellExceptionPropagatesToCaller) {
  SweepOptions opts;
  opts.jobs = 4;
  SweepRunner runner(opts);
  try {
    runner.run(16, [](std::size_t i) {
      if (i == 9) throw std::runtime_error("cell 9 exploded");
    });
    FAIL() << "expected runner.run to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell 9 exploded");
  }
}

TEST(SweepTest, ZeroCellsIsNoop) {
  SweepRunner runner;
  int calls = 0;
  runner.run(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

// The headline determinism property: each cell owns its whole world
// (Simulator, RNG streams, recorder), so a parallel sweep must produce
// results bit-identical to the serial sweep — same doubles, same sample
// vectors, independent of worker count or completion order.
TEST(SweepTest, GridParallelMatchesSerialBitExact) {
  const double rates[3] = {2.0, 8.6, 25.0};
  auto run_grid = [&](int jobs) {
    SweepOptions opts;
    opts.jobs = jobs;
    return sweep_map<StreamingResult>(
        9,
        [&](std::size_t i) {
          StreamingParams p;
          p.paths = two_paths(rates[i / 3], rates[i % 3]);
          p.scheduler = scheduler_factory("ecf");
          p.video = Duration::seconds(12);
          p.seed = 1 + i;
          return run_streaming(p);
        },
        opts);
  };
  const auto serial = run_grid(1);
  const auto parallel = run_grid(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& s = serial[i];
    const auto& p = parallel[i];
    EXPECT_GT(s.chunks_fetched, 0) << "cell " << i << " simulated nothing";
    EXPECT_EQ(s.mean_bitrate_mbps, p.mean_bitrate_mbps) << "cell " << i;
    EXPECT_EQ(s.mean_throughput_mbps, p.mean_throughput_mbps) << "cell " << i;
    EXPECT_EQ(s.fraction_fast, p.fraction_fast) << "cell " << i;
    EXPECT_EQ(s.iw_resets_wifi, p.iw_resets_wifi) << "cell " << i;
    EXPECT_EQ(s.iw_resets_lte, p.iw_resets_lte) << "cell " << i;
    EXPECT_EQ(s.reinjections, p.reinjections) << "cell " << i;
    EXPECT_EQ(s.rebuffer_time.ns(), p.rebuffer_time.ns()) << "cell " << i;
    EXPECT_EQ(s.chunks_fetched, p.chunks_fetched) << "cell " << i;
    EXPECT_EQ(s.mean_rtt_wifi_ms, p.mean_rtt_wifi_ms) << "cell " << i;
    EXPECT_EQ(s.mean_rtt_lte_ms, p.mean_rtt_lte_ms) << "cell " << i;
    EXPECT_EQ(s.ooo_delay.raw(), p.ooo_delay.raw()) << "cell " << i;
    EXPECT_EQ(s.last_packet_gap.raw(), p.last_packet_gap.raw()) << "cell " << i;
    ASSERT_EQ(s.chunks.size(), p.chunks.size()) << "cell " << i;
  }
}

// Same property for faulted worlds: the fault models draw from the per-link
// RNG forks, so random loss, burst loss, and reorder jitter must replay
// bit-identically regardless of how many sweep workers run the cells.
TEST(SweepTest, FaultedStressCellsMatchAcrossJobCounts) {
  auto run_grid = [](int jobs) {
    std::vector<StressCell> cells;
    for (const char* profile : {"iid", "ge_wifi", "storm"}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        StressCell c;
        c.profile = profile;
        c.scheduler = "ecf";
        c.seed = seed;
        c.bytes = 256 * 1024;
        cells.push_back(c);
      }
    }
    SweepOptions opts;
    opts.jobs = jobs;
    return sweep_map<StressCellResult>(
        cells.size(), [&](std::size_t i) { return run_stress_cell(cells[i]); }, opts);
  };
  const auto serial = run_grid(1);
  const auto parallel = run_grid(4);
  ASSERT_EQ(serial.size(), parallel.size());
  std::uint64_t total_drops = 0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& s = serial[i];
    const auto& p = parallel[i];
    EXPECT_TRUE(s.ok()) << "cell " << i << ": "
                        << (s.violations.empty() ? "stalled" : s.violations.front());
    total_drops += s.drops_random + s.drops_fault;
    EXPECT_EQ(s.completion_s, p.completion_s) << "cell " << i;  // bit-exact double
    EXPECT_EQ(s.drops_random, p.drops_random) << "cell " << i;
    EXPECT_EQ(s.drops_fault, p.drops_fault) << "cell " << i;
    EXPECT_EQ(s.reordered, p.reordered) << "cell " << i;
    EXPECT_EQ(s.retransmits, p.retransmits) << "cell " << i;
    EXPECT_EQ(s.rto_events, p.rto_events) << "cell " << i;
  }
  // The grid as a whole must have exercised the fault paths, or the
  // bit-exactness above proves nothing about fault-model RNG discipline.
  EXPECT_GT(total_drops, 0u);
}

}  // namespace
}  // namespace mps
