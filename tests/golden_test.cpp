// Golden-corpus test: every preset under scenarios/*.json is run at its
// in-file seed and the rendered summary (exactly what tools/mps_run prints,
// via the shared exp/scenario_run.h format_outcome) is compared byte-for-byte
// against tests/goldens/<stem>.golden. Any change to scheduler behaviour,
// RNG fork order, or output formatting shows up here as a diff.
//
// To keep ctest fast, non-traffic presets run at smoke scale before the
// golden is rendered: workload.runs=1, streaming video_s=5, download
// bytes=65536. Traffic presets run exactly as written — they are already
// sized for short runs and their churn plan depends on every field.
//
// Refreshing after an intentional behaviour change:
//   MPS_UPDATE_GOLDENS=1 ./build/tests/golden_test
// then review the diff under tests/goldens/ and commit it with the change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/scenario_run.h"
#include "exp/snapshot.h"
#include "obs/recorder.h"
#include "test_util.h"
#include "traffic/engine.h"

namespace mps {
namespace {

namespace fs = std::filesystem;

const fs::path kScenarioDir = fs::path(MPS_SOURCE_DIR) / "scenarios";
const fs::path kGoldenDir = fs::path(MPS_SOURCE_DIR) / "tests" / "goldens";

bool update_goldens() {
  const char* v = std::getenv("MPS_UPDATE_GOLDENS");
  return v != nullptr && std::string(v) == "1";
}

// Smoke scale for non-traffic presets (see file header). Traffic presets are
// left untouched: the arrival plan draws one RNG fork per planned flow, so
// every traffic field is load-bearing for the golden.
void apply_smoke_overrides(ScenarioSpec& spec) {
  if (spec.traffic.enabled) return;
  spec.workload.runs = 1;
  if (spec.workload.kind == WorkloadKind::kStream) spec.workload.video_s = 5.0;
  if (spec.workload.kind == WorkloadKind::kDownload) spec.workload.bytes = 65536;
}

// Mirrors tools/mps_run.cpp main(): name line, outcome, optional recorder
// summary. Kept in lockstep so the goldens certify the CLI's actual output.
std::string render(const ScenarioSpec& spec, RunTelemetry* telemetry = nullptr) {
  std::string out;
  if (!spec.name.empty()) out += "scenario: " + spec.name + "\n";

  ScenarioRunOptions opts;
  opts.telemetry = telemetry;
  FlightRecorder recorder;
  if (spec.record.summarize) opts.recorder = &recorder;
  const ScenarioOutcome outcome = run_scenario(spec, opts);
  out += format_outcome(spec, outcome);
  if (opts.recorder) {
    out += "\n--- flight recorder ---\n";
    std::ostringstream report;
    recorder.summarize(report);
    out += report.str();
  }
  return out;
}

TEST(GoldenCorpus, EveryScenarioMatchesGolden) {
  const auto files = json_files(kScenarioDir);
  ASSERT_FALSE(files.empty()) << "no scenario presets found in " << kScenarioDir;

  for (const fs::path& file : files) {
    SCOPED_TRACE(file.filename().string());
    ScenarioSpec spec;
    ASSERT_NO_THROW(spec = scenario_from_json(Json::parse(slurp(file))))
        << "preset failed to parse: " << file;
    apply_smoke_overrides(spec);

    const std::string actual = render(spec);
    const fs::path golden = kGoldenDir / (file.stem().string() + ".golden");

    if (update_goldens()) {
      std::ofstream out(golden, std::ios::binary);
      out << actual;
      continue;
    }

    ASSERT_TRUE(fs::exists(golden))
        << "missing golden " << golden << "\n"
        << "run: MPS_UPDATE_GOLDENS=1 ./tests/golden_test  (then review + commit)";
    const std::string expected = slurp(golden);
    EXPECT_EQ(expected, actual)
        << "output drifted from " << golden << "\n"
        << "if intentional: MPS_UPDATE_GOLDENS=1 ./tests/golden_test, review, commit";
  }
}

// A golden with no matching preset is dead weight that silently stops being
// checked — fail loudly instead.
TEST(GoldenCorpus, NoStaleGoldens) {
  for (const auto& entry : fs::directory_iterator(kGoldenDir)) {
    if (entry.path().extension() != ".golden") continue;
    const fs::path preset = kScenarioDir / (entry.path().stem().string() + ".json");
    EXPECT_TRUE(fs::exists(preset))
        << "stale golden " << entry.path() << " has no preset " << preset;
  }
}

// Re-running a preset in the same process must be bit-exact — the corpus
// would otherwise depend on test ordering.
TEST(GoldenCorpus, RenderIsDeterministic) {
  const auto files = json_files(kScenarioDir);
  ASSERT_FALSE(files.empty());
  ScenarioSpec spec = scenario_from_json(Json::parse(slurp(files.front())));
  apply_smoke_overrides(spec);
  EXPECT_EQ(render(spec), render(spec));
}

// Fire-order digests: every preset (at the goldens' smoke scale, rendered
// exactly as above) and a churned 200-flow crowd cell, each with the fold of
// its runs' Simulator::fire_digest(), events fired and schedule calls. The
// digest changes if any event fires at another time or in another order, so
// a kernel or link change that claims to be order-neutral must leave the
// digest and event columns untouched; the schedule column is what such a
// change is allowed (and meant) to move. Regenerated with
// MPS_UPDATE_GOLDENS=1 like the goldens.
TEST(FireDigest, EveryPresetAndAChurnCellMatchFixture) {
  auto line = [](const std::string& name, const RunTelemetry& t) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s %016llx %llu %llu\n", name.c_str(),
                  static_cast<unsigned long long>(t.fire_digest),
                  static_cast<unsigned long long>(t.events),
                  static_cast<unsigned long long>(t.scheduled));
    return std::string(buf);
  };
  std::string actual = "# name fire_digest events scheduled\n";
  for (const fs::path& file : json_files(kScenarioDir)) {
    ScenarioSpec spec = scenario_from_json(Json::parse(slurp(file)));
    apply_smoke_overrides(spec);
    RunTelemetry t;
    render(spec, &t);
    ASSERT_GT(t.events, 0u) << file;
    actual += line(file.stem().string(), t);
  }
  RunTelemetry churn;
  run_traffic(fairness_cell_spec("default", 200, 2.0, 32 * 1024, 1), nullptr, &churn);
  actual += line("churn_200_default", churn);

  const fs::path fixture = fs::path(MPS_SOURCE_DIR) / "tests" / "data" / "fire_digests.txt";
  if (update_goldens()) {
    std::ofstream(fixture, std::ios::binary) << actual;
    return;
  }
  EXPECT_EQ(slurp(fixture), actual) << "fire order or schedule count drifted from " << fixture;
}

}  // namespace
}  // namespace mps
