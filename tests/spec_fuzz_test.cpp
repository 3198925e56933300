// Spec mutation suite: every preset's JSON document is edited one step at a
// time and fed to scenario_from_json. The enumeration is exhaustive and
// deterministic (no RNG):
//   - per object member: drop it, rename it (an unknown key), and replace its
//     value with each of kValues;
//   - per non-empty array: drop the first element, append a copy of it;
//   - a few --set style edits through set_at_path (kEdits).
// Every mutant must either parse, and then satisfy
// parse(serialize(s)) == s, or throw std::invalid_argument whose text is
// "scenario spec: <key path>: ...". Any other exception type fails the test.
//
// tests/data/spec_mutants.txt pins, per preset, the mutant count, the
// accepted count and a digest of the ordered verdicts (the error text, or a
// hash of the serialized spec), so error wording, check order and the
// serialized form cannot move unnoticed. Refresh after an intentional change:
//   MPS_UPDATE_GOLDENS=1 ./build/tests/spec_fuzz_test
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/json.h"
#include "scenario/spec.h"
#include "test_util.h"

namespace mps {
namespace {

namespace fs = std::filesystem;

const fs::path kScenarioDir = fs::path(MPS_SOURCE_DIR) / "scenarios";
const fs::path kFixture = fs::path(MPS_SOURCE_DIR) / "tests" / "data" / "spec_mutants.txt";

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

const std::vector<Json>& replacement_values() {
  static const std::vector<Json> kValues = {
      Json::string("x"),
      Json::boolean(true),
      Json::null(),
      Json::array(),
      Json::object(),
      Json::number(std::int64_t{0}),
      Json::number(std::int64_t{-1}),
      Json::number(1e-9),
      Json::number(1e12),
      Json::number(std::int64_t{4294967297}),
  };
  return kValues;
}

// --set edits that set_at_path accepts on any preset (missing objects are
// created on the way) but that a spec must reject or absorb.
struct Edit {
  const char* path;
  const char* value;  // JSON text
};
constexpr Edit kEdits[] = {
    {"paths[0].faults.flap.down_s", "99"},
    {"paths[0].variation.kind", "\"random\""},
    {"paths[0].rate_mbps", "\"8.6\""},
    {"workload.kind", "\"Stream\""},
    {"conn.cc", "\"LIA\""},
    {"traffic.cross", "[{\"path\": 9}]"},
    {"path_manager.events",
     "[{\"at_s\": 2, \"action\": \"remove\", \"path\": 0}, {\"at_s\": 1, \"path\": 1}]"},
    // Several faults at once: pins which one a spec reports first. Variation
    // and fault blocks check ranges only after rejecting unknown keys; paths
    // check each field as it is read.
    {"paths[0].faults.flap", "{\"period_s\": 1, \"down_s\": 2, \"start_s\": -1}"},
    {"paths[0].faults.flap", "{\"period_s\": -1, \"bogus\": 1}"},
    {"paths[0].faults.gilbert_elliott", "{\"p_good_bad\": 2, \"loss_bad\": 2, \"bogus\": 1}"},
    {"paths[0].faults.reorder", "{\"prob\": 2, \"bogus\": 1}"},
    {"paths[0].faults.outages", "[{\"at_s\": -1, \"bogus\": 1}]"},
    {"paths[0].variation", "{\"kind\": \"random\", \"mean_interval_s\": -1}"},
    {"paths[0].variation", "{\"kind\": \"jitter\", \"jitter_frac\": 2, \"bogus\": 1}"},
    {"paths[0]", "{\"rate_mbps\": -1, \"bogus\": 1}"},
    {"path_manager.events", "[{\"at_s\": 2}, {\"at_s\": 1, \"action\": \"x\"}]"},
};

// `obj` with member i dropped (rename == nullptr) or renamed.
Json rebuilt(const Json& obj, std::size_t i, const char* rename) {
  Json out = Json::object();
  const auto& m = obj.members();
  for (std::size_t k = 0; k < m.size(); ++k) {
    if (k != i) {
      out.set(m[k].first, m[k].second);
    } else if (rename != nullptr) {
      out.set(m[k].first + rename, m[k].second);
    }
  }
  return out;
}

// Every single-step mutant of `j`, each a full replacement for `j`.
std::vector<Json> mutants(const Json& j) {
  std::vector<Json> out;
  if (j.is_object()) {
    const auto& m = j.members();
    for (std::size_t i = 0; i < m.size(); ++i) {
      out.push_back(rebuilt(j, i, nullptr));
      out.push_back(rebuilt(j, i, "_x"));
      for (const Json& v : replacement_values()) {
        Json c = j;
        *c.find(m[i].first) = v;
        out.push_back(std::move(c));
      }
      for (Json& sub : mutants(m[i].second)) {
        Json c = j;
        *c.find(m[i].first) = std::move(sub);
        out.push_back(std::move(c));
      }
    }
  } else if (j.is_array() && !j.items().empty()) {
    Json dropped = j;
    dropped.items().erase(dropped.items().begin());
    out.push_back(std::move(dropped));
    Json appended = j;
    appended.push_back(j.items().front());
    out.push_back(std::move(appended));
    for (std::size_t i = 0; i < j.items().size(); ++i) {
      for (Json& sub : mutants(j.items()[i])) {
        Json c = j;
        c.items()[i] = std::move(sub);
        out.push_back(std::move(c));
      }
    }
  }
  return out;
}

// Whether `what` reads "scenario spec: <key path>: <message>", the key path
// made of key characters, dots and [i] indices only.
bool names_a_key_path(const std::string& what) {
  const std::string prefix = "scenario spec: ";
  const std::size_t end = what.find(": ", prefix.size());
  if (what.rfind(prefix, 0) != 0 || end == std::string::npos || end == prefix.size()) {
    return false;
  }
  for (std::size_t i = prefix.size(); i < end; ++i) {
    const unsigned char c = static_cast<unsigned char>(what[i]);
    if (!std::isalnum(c) && c != '_' && c != '.' && c != '[' && c != ']') return false;
  }
  return true;
}

// The verdict on one mutant: the error text, or "ok <hash of the serialized
// spec>". A property violation is reported through gtest and still yields a
// verdict, so the digest stays comparable.
std::string verdict(const Json& doc, const std::string& where) {
  try {
    const ScenarioSpec s = scenario_from_json(doc);
    const std::string text = serialize_scenario(s);
    EXPECT_TRUE(parse_scenario(text) == s) << where << ": round trip is not field-exact";
    char buf[32];
    std::snprintf(buf, sizeof buf, "ok %016llx", static_cast<unsigned long long>(fnv1a(text)));
    return buf;
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_TRUE(names_a_key_path(what)) << where << ": " << what;
    return what;
  } catch (const std::exception& e) {
    ADD_FAILURE() << where << ": unexpected exception: " << e.what();
    return std::string("unexpected: ") + e.what();
  } catch (...) {
    ADD_FAILURE() << where << ": non-standard exception";
    return "unexpected";
  }
}

TEST(SpecFuzz, EveryPresetMutantParsesExactlyOrNamesItsKey) {
  std::string actual = "# name mutants accepted verdict_digest\n";
  const std::vector<fs::path> files = json_files(kScenarioDir);
  ASSERT_EQ(files.size(), 13u) << "presets under " << kScenarioDir;
  for (const fs::path& file : files) {
    const std::string name = file.stem().string();
    const Json doc = Json::parse(slurp(file));
    std::vector<Json> docs = mutants(doc);
    for (const Edit& e : kEdits) {
      Json c = doc;
      set_at_path(c, e.path, Json::parse(e.value));
      docs.push_back(std::move(c));
    }
    std::size_t accepted = 0;
    std::uint64_t digest = fnv1a("");
    for (std::size_t i = 0; i < docs.size(); ++i) {
      const std::string v = verdict(docs[i], name + " mutant " + std::to_string(i));
      if (v.rfind("ok ", 0) == 0) ++accepted;
      digest = fnv1a(v + "\n", digest);
    }
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s %zu %zu %016llx\n", name.c_str(), docs.size(), accepted,
                  static_cast<unsigned long long>(digest));
    actual += buf;
  }
  if (std::getenv("MPS_UPDATE_GOLDENS") != nullptr &&
      std::string(std::getenv("MPS_UPDATE_GOLDENS")) == "1") {
    std::ofstream(kFixture, std::ios::binary) << actual;
    return;
  }
  EXPECT_EQ(slurp(kFixture), actual) << "spec verdicts drifted from " << kFixture;
}

}  // namespace
}  // namespace mps
