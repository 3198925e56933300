// Simple file downloads (the paper's wget workload, Section 5.4): sweep file
// sizes on a heterogeneous pair and compare schedulers side by side.
//
//   ./build/examples/file_download [wifi_mbps] [lte_mbps]
#include <cstdio>
#include <cstdlib>

#include "exp/download.h"
#include "sched/registry.h"

int main(int argc, char** argv) {
  using namespace mps;

  const double wifi_mbps = argc > 1 ? std::atof(argv[1]) : 1.0;
  const double lte_mbps = argc > 2 ? std::atof(argv[2]) : 10.0;

  std::printf("download completion time (s), %.1f Mbps WiFi + %.1f Mbps LTE\n\n", wifi_mbps,
              lte_mbps);
  std::printf("%10s", "size");
  for (const auto& sched : paper_schedulers()) std::printf("%12s", sched.c_str());
  std::printf("\n");

  for (std::uint64_t kb : {64, 128, 256, 512, 1024, 2048, 4096}) {
    std::printf("%8lluKB", static_cast<unsigned long long>(kb));
    for (const auto& sched : paper_schedulers()) {
      DownloadParams p;
      p.paths = {wifi_profile(Rate::mbps(wifi_mbps)), lte_profile(Rate::mbps(lte_mbps))};
      p.bytes = kb * 1024;
      p.scheduler = scheduler_factory(sched);
      std::printf("%12.3f", run_download(p).completion.to_seconds());
    }
    std::printf("\n");
  }
  std::printf("\n(ECF should never lose to default, with gains at larger sizes\n"
              "under strong heterogeneity; cf. paper Figs. 18/19.)\n");
  return 0;
}
