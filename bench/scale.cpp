#include "bench/scale.h"

#include <cstdlib>

namespace mps {

namespace {

BenchScale make_scale() {
  BenchScale s;
  const char* env = std::getenv("MPS_BENCH_SCALE");
  const std::string mode = env != nullptr ? env : "quick";
  if (mode == "paper") {
    s.name = "paper";
    s.video = Duration::seconds(1200);
    s.streaming_runs = 5;
    s.wget_runs = 30;
    s.web_runs = 10;
    s.random_scenarios = 10;
    s.random_run = Duration::seconds(1200);
    s.grid_step = 1;
  } else if (mode == "full") {
    s.name = "full";
    s.video = Duration::seconds(600);
    s.streaming_runs = 3;
    s.wget_runs = 15;
    s.web_runs = 5;
    s.random_scenarios = 10;
    s.random_run = Duration::seconds(600);
    s.grid_step = 1;
  }
  return s;
}

}  // namespace

const BenchScale& bench_scale() {
  static const BenchScale scale = make_scale();
  return scale;
}

std::string scale_note() {
  const BenchScale& s = bench_scale();
  return "MPS_BENCH_SCALE=" + s.name + " (video " + std::to_string(s.video.ns() / 1000000000) +
         "s, runs " + std::to_string(s.streaming_runs) + "; set MPS_BENCH_SCALE=paper for full scale)";
}

}  // namespace mps
