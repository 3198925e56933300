// Web browsing over MPTCP — the paper's Section 5.5 workload: a 107-object
// page over six parallel persistent connections.
//
//   ./build/examples/web_browsing [wifi_mbps] [lte_mbps]
//
// Loads the page once per scheduler and prints the completion-time
// distribution, page load time, and idle-reset counts.
#include <cstdio>
#include <cstdlib>

#include "app/web.h"
#include "scenario/world.h"
#include "sched/registry.h"

int main(int argc, char** argv) {
  using namespace mps;

  const double wifi_mbps = argc > 1 ? std::atof(argv[1]) : 1.0;
  const double lte_mbps = argc > 2 ? std::atof(argv[2]) : 10.0;

  std::printf("CNN-page model: 107 objects over 6 connections, %.1f/%.1f Mbps\n\n", wifi_mbps,
              lte_mbps);
  std::printf("%-10s %10s %10s %10s %12s %10s\n", "scheduler", "mean(s)", "p90(s)", "p99(s)",
              "page(s)", "IW resets");

  for (const auto& sched : paper_schedulers()) {
    WorldConfig tb;
    tb.paths = {wifi_profile(Rate::mbps(wifi_mbps)), lte_profile(Rate::mbps(lte_mbps))};
    World bed(tb);

    WebPageConfig wc;
    Rng page_rng(0xC0FFEE);  // identical page for every scheduler
    auto objects = make_page_objects(page_rng, wc);

    const SchedulerFactory factory = scheduler_factory(sched);
    WebBrowser browser(bed.sim(), wc, std::move(objects),
                       [&] { return bed.make_connection(factory); });
    browser.on_finished = [&] { bed.sim().request_stop(); };
    browser.start();
    bed.sim().run_until(TimePoint::origin() + Duration::seconds(600));

    const Samples& times = browser.object_times();
    std::printf("%-10s %10.3f %10.3f %10.3f %12.2f %10llu\n", sched.c_str(), times.mean(),
                times.quantile(0.9), times.quantile(0.99),
                browser.page_load_time().to_seconds(),
                static_cast<unsigned long long>(browser.iw_resets()));
  }
  return 0;
}
