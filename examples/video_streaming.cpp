// Adaptive video streaming over heterogeneous paths — the paper's motivating
// scenario (Sections 3 and 5.2).
//
//   ./build/examples/video_streaming [wifi_mbps] [lte_mbps] [scheduler]
//
// Streams a 3-minute DASH session (paper Table 1 bitrate ladder, 5 s chunks,
// buffer-based ABR) and reports per-chunk behaviour plus the session
// summary. Compare `default` and `ecf` at 0.3 / 8.6 Mbps to see the effect
// the paper describes: the default scheduler strands the fast LTE path at
// every chunk tail, resets its window, and locks the player into a lower
// rendition.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "app/dash.h"
#include "app/http.h"
#include "exp/ideal.h"
#include "scenario/world.h"
#include "sched/registry.h"

int main(int argc, char** argv) {
  using namespace mps;

  const double wifi_mbps = argc > 1 ? std::atof(argv[1]) : 0.3;
  const double lte_mbps = argc > 2 ? std::atof(argv[2]) : 8.6;
  const std::string sched = argc > 3 ? argv[3] : "ecf";

  WorldConfig tb;
  tb.paths = {wifi_profile(Rate::mbps(wifi_mbps)), lte_profile(Rate::mbps(lte_mbps))};
  World bed(tb);
  auto conn = bed.make_connection(scheduler_factory(sched));
  HttpExchange http(bed.sim(), *conn, bed.request_delay());

  DashConfig dc;
  dc.video_duration = Duration::seconds(180);
  DashSession session(bed.sim(), http, dc);
  session.on_finished = [&] { bed.sim().request_stop(); };

  std::printf("streaming %.1f Mbps WiFi + %.1f Mbps LTE, scheduler=%s\n", wifi_mbps, lte_mbps,
              sched.c_str());
  std::printf("%6s %8s %10s %8s %10s\n", "chunk", "rate", "bytes", "dl(s)", "tput(Mbps)");

  session.start();
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(3600));

  for (const auto& c : session.chunks()) {
    std::printf("%6d %8.2f %10llu %8.2f %10.2f\n", c.index, c.bitrate_mbps,
                static_cast<unsigned long long>(c.bytes),
                (c.fetch_end - c.fetch_start).to_seconds(), c.throughput_mbps);
  }

  const auto& subflows = conn->subflows();
  std::printf("\nsession summary\n");
  std::printf("  mean bitrate        %6.2f Mbps (ideal %.2f)\n", session.mean_bitrate_mbps(),
              ideal_bitrate_mbps(wifi_mbps, lte_mbps));
  std::printf("  mean throughput     %6.2f Mbps\n", session.mean_throughput_mbps());
  std::printf("  rebuffer time       %6.2f s (%d events)\n",
              session.rebuffer_time().to_seconds(), session.rebuffer_events());
  std::printf("  wifi / lte bytes    %6.1f / %.1f MB\n",
              subflows[0]->stats().bytes_sent / 1e6, subflows[1]->stats().bytes_sent / 1e6);
  std::printf("  lte IW resets       %6llu\n",
              static_cast<unsigned long long>(subflows[1]->stats().iw_resets));
  std::printf("  ooo delay p50/p99   %6.3f / %.3f s\n", conn->ooo_delay().quantile(0.5),
              conn->ooo_delay().quantile(0.99));
  return 0;
}
