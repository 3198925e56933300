// Quickstart: build a two-path testbed, run a 2 MB download under the
// default and ECF schedulers, and print what each did.
//
//   ./build/examples/quickstart
//   ./build/examples/quickstart --trace-out events.jsonl
//
// This is the smallest end-to-end use of the public API: World (paths +
// simulator), Connection (MPTCP), HttpExchange (request/response), the
// scheduler registry, and the flight recorder. With --trace-out, every
// structured stack event (packet sends/acks, losses, scheduler picks and
// ECF waits) is written as one JSON object per line.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>

#include "app/http.h"
#include "obs/recorder.h"
#include "scenario/world.h"
#include "sched/registry.h"

int main(int argc, char** argv) {
  using namespace mps;

  const char* trace_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    }
  }

  std::ofstream trace_file;
  if (trace_path != nullptr) {
    trace_file.open(trace_path);
    if (!trace_file) {
      std::fprintf(stderr, "cannot open %s for writing\n", trace_path);
      return 1;
    }
  }

  for (const char* sched : {"default", "ecf"}) {
    // One recorder per run; the JSONL sink (if requested) sees both runs.
    FlightRecorder recorder;
    std::unique_ptr<JsonlSink> sink;
    if (trace_path != nullptr) {
      sink = std::make_unique<JsonlSink>(trace_file);
      recorder.set_event_sink(sink.get());
    }

    // A strongly heterogeneous pair — the paper testbed's extreme cell:
    // 0.3 Mbps WiFi (primary) against 8.6 Mbps LTE. This is the regime where
    // ECF's wait-for-the-fast-path decisions actually fire, so the trace
    // contains sched_wait records with the Algorithm 1 terms.
    WorldConfig tb;
    tb.paths = {wifi_profile(Rate::mbps(0.3)), lte_profile(Rate::mbps(8.6))};
    tb.recorder = &recorder;
    World bed(tb);

    auto conn = bed.make_connection(scheduler_factory(sched));
    HttpExchange http(bed.sim(), *conn, bed.request_delay());

    Duration completion = Duration::zero();
    http.get(2 * 1024 * 1024, [&](const ObjectResult& r) {
      completion = r.completed - r.requested;
      bed.sim().request_stop();
    });
    bed.sim().run_until(TimePoint::origin() + Duration::seconds(120));

    const auto& subflows = conn->subflows();
    std::printf("%-8s completed 2 MiB in %6.3f s  (wifi %6.1f KiB, lte %6.1f KiB, "
                "ooo-delay p99 %5.1f ms)\n",
                sched, completion.to_seconds(),
                subflows[0]->stats().bytes_sent / 1024.0,
                subflows[1]->stats().bytes_sent / 1024.0,
                conn->ooo_delay().quantile(0.99) * 1e3);
    std::fflush(stdout);

    std::printf("--- flight recorder: %s ---\n", sched);
    std::fflush(stdout);
    recorder.summarize(std::cout);
    std::cout.flush();
  }

  if (trace_path != nullptr) {
    std::printf("trace written to %s\n", trace_path);
  }
  return 0;
}
