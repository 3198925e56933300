// mps_report — analyze a ProfileReport written by mps_run --prof-out or the
// bench drivers.
//
//   mps_report <prof.json> [--top N] [--trace events.jsonl] [--check]
//
//   --top N              Show the N hottest scopes by self time (default 10).
//   --trace FILE         Also read a JSONL event trace (obs/events.h
//                        format, as written by examples/quickstart
//                        --trace-out) and print per-flow timeline summaries.
//   --check              Validate only: parse the report against the
//                        mps.profile.v1 schema, print nothing on success.
//                        Exit 1 with the offending key on stderr otherwise.
//
// Output is deterministic for a fixed input file (no clocks, no locale), so
// tests pin it byte-for-byte (tests/prof_test.cpp).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/prof_report.h"
#include "scenario/json.h"

int main(int argc, char** argv) {
  using namespace mps;

  if (argc < 2 || std::string(argv[1]) == "--help") {
    std::fprintf(stderr,
                 "usage: %s <prof.json> [--top N] [--trace events.jsonl] [--check]\n",
                 argv[0]);
    return 2;
  }

  const std::string report_path = argv[1];
  int top_n = 10;
  std::string trace_path;
  bool check_only = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--top" && i + 1 < argc) {
      try {
        top_n = std::stoi(argv[++i]);
      } catch (const std::exception&) {
        std::fprintf(stderr, "mps_report: bad --top value '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--check") {
      check_only = true;
    } else {
      std::fprintf(stderr, "mps_report: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }

  std::ifstream in(report_path);
  if (!in) {
    std::fprintf(stderr, "mps_report: cannot open %s\n", report_path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  ProfileReport report;
  try {
    report = profile_report_from_json(Json::parse(buf.str()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mps_report: %s: %s\n", report_path.c_str(), e.what());
    return 1;
  }
  if (check_only) return 0;

  std::fputs(render_profile_report(report, top_n).c_str(), stdout);

  if (!trace_path.empty()) {
    std::ifstream trace(trace_path);
    if (!trace) {
      std::fprintf(stderr, "mps_report: cannot open %s\n", trace_path.c_str());
      return 2;
    }
    std::fputc('\n', stdout);
    std::fputs(render_flow_timelines(trace).c_str(), stdout);
  }
  return 0;
}
