// Web-browsing experiment runner (paper Sections 5.5 and 6.3).
#pragma once

#include <memory>

#include "exp/run.h"
#include "util/stats.h"
#include "util/time.h"

namespace mps {

class WebBrowser;

struct WebRunParams : RunParams {
  int runs = 2;
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
// an object so it can be paused and forked (exp/snapshot.h). run_scenario
// runs params.runs of them and merges their results.
class WebPageRun final : public RunShell {
 public:
  WebPageRun(const WebRunParams& params, int rep);
  ~WebPageRun() override;

  // Independent copy at the current simulation time (see StreamingRun::fork).
  std::unique_ptr<WebPageRun> fork() const;

  // Runs to completion (or the cap) and merges this repetition's
  // observables into `res`, adding its page load time to `page_load_sum`.
  void finish(WebRunResult& res, double& page_load_sum);

 private:
  WebPageRun(const WebPageRun& src, ForkTag);
  void construct(const WebPageRun* src);  // src: the run a fork copies
  void begin() override;

  WebRunParams params_;
  std::unique_ptr<WebBrowser> browser_;
};

}  // namespace mps
