// Web-browsing experiment runner (paper Sections 5.5 and 6.3).
#pragma once

#include <memory>
#include <string>

#include "mptcp/scheduler.h"
#include "net/path.h"
#include "sim/simulator.h"
#include "tcp/cc.h"
#include "util/stats.h"
#include "util/time.h"

namespace mps {

class Testbed;
class WebBrowser;

struct WebRunParams {
  double wifi_mbps = 5.0;
  double lte_mbps = 5.0;
  std::string scheduler = "default";
  CcKind cc = CcKind::kLia;
  std::uint64_t seed = 1;
  int runs = 2;
  // Optional full path overrides (wild profiles).
  bool use_path_overrides = false;
  PathConfig wifi_override;
  PathConfig lte_override;
  // Kernel accounting out-param and progress heartbeat (sim/simulator.h).
  RunTelemetry* telemetry = nullptr;
  HeartbeatConfig heartbeat;
};

struct WebRunResult {
  Samples object_times;  // seconds, per object across all runs
  Samples ooo_delay;     // seconds, per packet across all runs
  double mean_page_load_s = 0.0;
  std::uint64_t iw_resets = 0;
  // A page load reached the 3600 s safety cap before it finished; its
  // object times then cover only the objects that completed.
  bool capped = false;
};

// One repetition of the web workload (one page load at seed + rep) held as
// an object so it can be paused and forked (exp/snapshot.h). run_web() loops
// construct + start + finish over params.runs repetitions.
class WebPageRun {
 public:
  WebPageRun(const WebRunParams& params, int rep);
  ~WebPageRun();
  WebPageRun(const WebPageRun&) = delete;
  WebPageRun& operator=(const WebPageRun&) = delete;

  // Starts the page load and attaches the heartbeat. Call once.
  void start();
  // Advances to absolute time `t` (clamped to the 3600 s safety cap); no-op
  // once the page has finished loading.
  void run_to(TimePoint t);
  bool done() const { return done_; }
  Simulator& sim();

  // Independent copy at the current simulation time (see StreamingRun::fork).
  std::unique_ptr<WebPageRun> fork() const;

  // Merges this repetition's observables into `res` exactly as run_web's
  // per-rep block does (runs to completion first if needed).
  void finish(WebRunResult& res, double& page_load_sum);

 private:
  struct ForkTag {};
  WebPageRun(const WebPageRun& src, ForkTag);
  void construct();

  WebRunParams params_;
  int rep_;
  TimePoint cap_;
  SchedulerFactory factory_;
  std::unique_ptr<Testbed> bed_;
  std::unique_ptr<WebBrowser> browser_;
  bool started_ = false;
  bool done_ = false;
};

WebRunResult run_web(const WebRunParams& params);

}  // namespace mps
