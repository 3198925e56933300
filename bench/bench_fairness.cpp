// Scheduler fairness under competing traffic (beyond the paper's
// one-connection evaluation, cf. Dimopoulos et al. / QAware): 1/4/16/64
// MPTCP flows with Poisson churn share the wifi(8)/lte(10) testbed against a
// single-path LTE cross flow. Reports Jain's index over the MPTCP flows,
// aggregate goodput, link utilization, and mean flow completion time for
// all four schedulers. Deterministic at any MPS_BENCH_JOBS value.
//
// --prof-out FILE writes a ProfileReport (exp/prof_report.h) with the
// sweep's worker telemetry; stdout is byte-identical with or without it.
#include <chrono>
#include <fstream>

#include "bench/common.h"
#include "exp/prof_report.h"
#include "exp/snapshot.h"
#include "obs/prof.h"

int main(int argc, char** argv) {
  using namespace mps;
  using namespace mps::bench;

  const auto wall_start = std::chrono::steady_clock::now();
  std::string prof_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--prof-out" && i + 1 < argc) {
      prof_out = argv[++i];
    } else {
      std::fprintf(stderr, "bench_fairness: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }

  print_header(std::cout, "bench_fairness",
               "Fairness under 1/4/16/64 competing flows + LTE cross traffic", scale_note());

  const auto& scheds = paper_schedulers();
  const std::vector<int> flow_counts = {1, 4, 16, 64};
  const BenchScale& scale = bench_scale();
  const double duration_s = scale.name == "quick" ? 8.0 : scale.name == "full" ? 20.0 : 60.0;
  const std::int64_t flow_bytes = scale.name == "quick" ? 131072 : 262144;

  const std::size_t ns = scheds.size();
  SweepTelemetry sweep_telemetry;
  const auto flat = sweep_map<TrafficResult>(
      flow_counts.size() * ns,
      [&](std::size_t i) {
        const int flows = flow_counts[i / ns];
        return run_traffic(fairness_cell_spec(scheds[i % ns], flows, duration_s, flow_bytes));
      },
      SweepOptions{}, &sweep_telemetry);

  std::vector<std::string> rows;
  for (int f : flow_counts) rows.push_back(std::to_string(f));
  const std::vector<std::string> series = {"Default", "ECF", "DAPS", "BLEST"};
  const auto cell = [&](std::size_t g, std::size_t s) -> const TrafficResult& {
    // paper_schedulers() order is default, ecf, daps, blest.
    return flat[g * ns + s];
  };

  print_grouped(std::cout, "Jain fairness index over MPTCP flows", "flows", rows, series,
                [&](std::size_t g, std::size_t s) { return cell(g, s).jain; });
  print_grouped(std::cout, "aggregate goodput (Mbps, incl. cross)", "flows", rows, series,
                [&](std::size_t g, std::size_t s) { return cell(g, s).aggregate_goodput_mbps; });
  print_grouped(std::cout, "link utilization of 18 Mbps capacity", "flows", rows, series,
                [&](std::size_t g, std::size_t s) { return cell(g, s).utilization; });
  print_grouped(std::cout, "mean flow completion time (s)", "flows", rows, series,
                [&](std::size_t g, std::size_t s) { return cell(g, s).completion_s.mean(); });

  std::printf("\nexpected shape: utilization rises with flow count; fairness degrades as\n"
              "churn makes flows heterogeneous; no scheduler starves a flow outright\n");

  if (!prof_out.empty()) {
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    ProfileReport report = build_profile_report(prof::snapshot(), wall_s);
    add_sweep_telemetry(report, sweep_telemetry);
    std::ofstream pf(prof_out);
    if (!pf) {
      std::fprintf(stderr, "bench_fairness: cannot write %s\n", prof_out.c_str());
      return 1;
    }
    pf << profile_report_to_json(report).dump(2) << "\n";
  }
  return 0;
}
