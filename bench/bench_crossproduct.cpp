// Scheduler x congestion-controller cross product (ROADMAP item 3): every
// scheduler the repo ships (paper four + rr + the cross-layer QAware and
// the OCO gradient-weight scheduler) against every coupled controller
// (reno, cubic, lia, olia, balia) across three heterogeneity ratios, as
// download-completion heatmaps — the paper evaluates schedulers under one
// controller at a time; this grid asks whether ECF's win survives the
// controller choice.
//
// Two measurements, deterministic at any MPS_BENCH_JOBS value:
//
//  * completion: mean wget completion time per (cc, wifi:lte ratio,
//    scheduler) cell, WiFi swept {10, 5, 2} Mbps against LTE fixed at 10,
//    one grouped table per controller, plus a "does ECF still win?" readout
//    comparing ECF against the default scheduler in every cell. Light iid
//    loss (0.5% wifi / 0.2% lte) keeps the transfer out of pure slow start
//    — loss-free downloads at this size never enter congestion avoidance,
//    where the controllers actually differ.
//  * fairness: Jain's index over 8 competing MPTCP flows (plus an LTE
//    single-path cross flow) per (cc, scheduler) cell — coupled controllers
//    exist to be fair at shared bottlenecks, so the cross product must
//    include the regime they were designed for.
//
// Results are written to BENCH_crossproduct.json (path overridable as
// argv[1]) so successive PRs can compare cells.
#include <fstream>

#include "bench/common.h"
#include "exp/snapshot.h"
#include "scenario/json.h"
#include "tcp/cc_registry.h"

int main(int argc, char** argv) {
  using namespace mps;
  using namespace mps::bench;

  const char* out_path = "BENCH_crossproduct.json";
  if (argc > 1) out_path = argv[1];

  print_header(std::cout, "bench_crossproduct",
               "Scheduler x CC cross product — completion + fairness grid", scale_note());

  const std::vector<std::string> scheds = {"default", "ecf", "blest", "daps",
                                           "rr",      "qaware", "oco"};
  const std::vector<std::string>& ccs = cc_names();
  const std::vector<double> wifi_grid = {10.0, 5.0, 2.0};  // LTE fixed at 10
  const double lte = 10.0;
  const BenchScale& scale = bench_scale();
  const std::uint64_t bytes = scale.name == "quick" ? 262144 : 1048576;
  const int runs = scale.wget_runs;

  const std::size_t ns = scheds.size();
  const std::size_t nr = wifi_grid.size();
  const std::size_t nc = ccs.size();

  // One flat sweep over cc x ratio x scheduler (cc-major); each cell is an
  // independent seeded world, so the grid is bit-identical at any job count.
  const auto completion = sweep_map<double>(nc * nr * ns, [&](std::size_t i) {
    ScenarioSpec spec = download_spec(wifi_grid[(i / ns) % nr], lte, scheds[i % ns], bytes,
                                      1 + static_cast<std::uint64_t>((i / ns) % nr), runs);
    spec.conn.cc = ccs[i / (nr * ns)];
    spec.paths[0].loss_rate = 0.005;
    spec.paths[1].loss_rate = 0.002;
    return run_scenario(spec).download_completions.mean();
  });
  const auto cell = [&](std::size_t c, std::size_t r, std::size_t s) {
    return completion[c * nr * ns + r * ns + s];
  };

  std::vector<std::string> ratio_rows;
  for (double w : wifi_grid) ratio_rows.push_back(pair_label(w, lte));
  for (std::size_t c = 0; c < nc; ++c) {
    print_grouped(std::cout, "(cc=" + ccs[c] + ") avg completion time (s), LTE 10 Mbps",
                  "wifi-lte", ratio_rows, scheds,
                  [&](std::size_t g, std::size_t s) { return cell(c, g, s); });
  }

  // Jain's fairness: 8 competing MPTCP flows + one LTE cross flow, per
  // (cc, scheduler) cell.
  const double duration_s = scale.name == "quick" ? 8.0 : 20.0;
  const std::int64_t flow_bytes = scale.name == "quick" ? 131072 : 262144;
  const auto fairness = sweep_map<double>(nc * ns, [&](std::size_t i) {
    ScenarioSpec spec = fairness_cell_spec(scheds[i % ns], 8, duration_s, flow_bytes);
    spec.conn.cc = ccs[i / ns];
    return run_traffic(spec).jain;
  });
  print_grouped(std::cout, "Jain fairness index, 8 competing flows + LTE cross flow", "cc",
                ccs, scheds, [&](std::size_t c, std::size_t s) { return fairness[c * ns + s]; });

  // The readout the grid exists for: does ECF's paper-scale win survive the
  // controller choice? Per controller, count the ratio cells where ECF beats
  // (or ties, within 1 ms) the default min-RTT scheduler, and where it is
  // the outright best of the whole scheduler row.
  std::printf("\ndoes ECF still win?\n");
  std::size_t le_total = 0;
  for (std::size_t c = 0; c < nc; ++c) {
    std::size_t le_default = 0, best = 0;
    for (std::size_t r = 0; r < nr; ++r) {
      const double ecf_s = cell(c, r, 1);
      if (ecf_s <= cell(c, r, 0) + 1e-3) ++le_default;
      bool outright = true;
      for (std::size_t s = 0; s < ns; ++s) {
        if (s != 1 && cell(c, r, s) < ecf_s) outright = false;
      }
      if (outright) ++best;
    }
    le_total += le_default;
    std::printf("  %-6s ecf <= default in %zu/%zu ratio cells, outright best in %zu/%zu\n",
                ccs[c].c_str(), le_default, nr, best, nr);
  }
  std::printf("  total: ecf <= default in %zu/%zu cells across the cross product\n", le_total,
              nc * nr);

  Json doc = Json::object();
  doc.set("bench", Json::string("bench_crossproduct"));
  doc.set("scale", Json::string(scale.name));
  doc.set("bytes", Json::number(static_cast<std::int64_t>(bytes)));
  doc.set("runs", Json::number(static_cast<std::int64_t>(runs)));
  Json cells = Json::array();
  for (std::size_t c = 0; c < nc; ++c) {
    for (std::size_t r = 0; r < nr; ++r) {
      for (std::size_t s = 0; s < ns; ++s) {
        Json e = Json::object();
        e.set("cc", Json::string(ccs[c]));
        e.set("wifi_mbps", Json::number(wifi_grid[r]));
        e.set("lte_mbps", Json::number(lte));
        e.set("scheduler", Json::string(scheds[s]));
        e.set("mean_s", Json::number(cell(c, r, s)));
        cells.push_back(std::move(e));
      }
    }
  }
  doc.set("completion", cells);
  Json fair = Json::array();
  for (std::size_t c = 0; c < nc; ++c) {
    for (std::size_t s = 0; s < ns; ++s) {
      Json e = Json::object();
      e.set("cc", Json::string(ccs[c]));
      e.set("scheduler", Json::string(scheds[s]));
      e.set("jain", Json::number(fairness[c * ns + s]));
      fair.push_back(std::move(e));
    }
  }
  doc.set("fairness", fair);
  doc.set("ecf_le_default_cells", Json::number(static_cast<std::int64_t>(le_total)));
  doc.set("grid_cells", Json::number(static_cast<std::int64_t>(nc * nr)));

  std::ofstream f(out_path);
  f << doc.dump(2) << "\n";
  std::printf("\nwrote %s\n", out_path);
  return 0;
}
