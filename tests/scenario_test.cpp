// Scenario subsystem: JSON document round trips, spec parse/serialize
// (field-exact), strict error reporting, builder ownership, and
// determinism of spec-driven runs (including serial vs parallel sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/ideal.h"
#include "exp/scenario_run.h"
#include "exp/sweep.h"
#include "obs/recorder.h"
#include "scenario/json.h"
#include "scenario/spec.h"
#include "scenario/world.h"

namespace mps {
namespace {

// --- JSON document ----------------------------------------------------------

TEST(JsonTest, ParseRoundTripPreservesTypes) {
  const Json j = Json::parse(R"({"i": 3, "d": 3.5, "neg": -0.8, "s": "x", "b": true,
                                 "n": null, "a": [1, 2.5]})");
  EXPECT_TRUE(j.find("i")->is_int());
  EXPECT_EQ(j.find("i")->as_int(), 3);
  EXPECT_FALSE(j.find("d")->is_int());
  EXPECT_EQ(j.find("d")->as_double(), 3.5);
  EXPECT_EQ(j.find("neg")->as_double(), -0.8);
  EXPECT_TRUE(j.find("n")->is_null());
  EXPECT_TRUE(j.find("a")->items()[0].is_int());
  EXPECT_FALSE(j.find("a")->items()[1].is_int());
  // Integers print without a decimal point, doubles with one.
  EXPECT_EQ(j.dump(), R"({"i":3,"d":3.5,"neg":-0.8,"s":"x","b":true,"n":null,"a":[1,2.5]})");
}

TEST(JsonTest, DumpIsRoundTripStable) {
  const Json j = Json::parse(R"({"a": 0.1, "b": 8.47, "c": 1e-09, "d": [0.3, 1.1, 1.7]})");
  const std::string once = j.dump(2);
  EXPECT_EQ(Json::parse(once).dump(2), once);
  EXPECT_TRUE(Json::parse(once) == j);
}

TEST(JsonTest, LineCommentsAreAllowed) {
  const Json j = Json::parse("// header\n{\n  \"a\": 1 // trailing\n}\n");
  EXPECT_EQ(j.find("a")->as_int(), 1);
}

TEST(JsonTest, ErrorsCarryLineAndColumn) {
  try {
    Json::parse("{\n  \"a\": }");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(JsonTest, DuplicateKeysRejected) {
  EXPECT_THROW(Json::parse(R"({"a": 1, "a": 2})"), JsonError);
}

// --- set_at_path (the mps_run --set walker) ---------------------------------

const char* const kSetDoc =
    R"({"paths": [{"rate_mbps": 1}, {"rate_mbps": 2}], "workload": {"kind": "stream"}})";

// The error set_at_path throws for `path`, or "" when it succeeds.
std::string set_error(const std::string& path) {
  Json doc = Json::parse(kSetDoc);
  try {
    set_at_path(doc, path, Json::number(std::int64_t{7}));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

bool contains(const std::string& text, const std::string& part) {
  return text.find(part) != std::string::npos;
}

TEST(JsonTest, SetAtPathWalksKeysAndIndices) {
  Json doc = Json::parse(kSetDoc);
  set_at_path(doc, "paths[1].rate_mbps", Json::number(0.3));
  set_at_path(doc, "workload.video_s", Json::number(std::int64_t{5}));
  set_at_path(doc, "record.summarize", Json::boolean(true));  // creates "record"
  set_at_path(doc, "paths[0]", Json::string("whole element"));
  EXPECT_EQ(doc.find("paths")->items()[1].find("rate_mbps")->as_double(), 0.3);
  EXPECT_EQ(doc.find("workload")->find("video_s")->as_int(), 5);
  EXPECT_EQ(doc.find("workload")->find("kind")->as_string(), "stream");
  EXPECT_TRUE(doc.find("record")->find("summarize")->as_bool());
  EXPECT_EQ(doc.find("paths")->items()[0].as_string(), "whole element");
}

// An object key on an array is the common slip (`paths.0.rate_mbps`); it must
// name the path and point at the [i] form instead of aborting.
TEST(JsonTest, SetAtPathKeyOnArraySuggestsIndexForm) {
  const std::string numeric = set_error("paths.0.rate_mbps");
  EXPECT_TRUE(contains(numeric, "'paths.0.rate_mbps'")) << numeric;
  EXPECT_TRUE(contains(numeric, "index it as paths[0]")) << numeric;
  const std::string word = set_error("paths.rate_mbps");
  EXPECT_TRUE(contains(word, "'paths.rate_mbps'")) << word;
  EXPECT_TRUE(contains(word, "index it as paths[0]")) << word;
  const std::string nested = set_error("paths[1].rate_mbps.x");
  EXPECT_TRUE(contains(nested, "'paths[1].rate_mbps' is of type int")) << nested;
}

TEST(JsonTest, SetAtPathIndexOnObjectNamesThePath) {
  const std::string err = set_error("workload[0].kind");
  EXPECT_TRUE(contains(err, "'workload[0].kind'")) << err;
  EXPECT_TRUE(contains(err, "'workload' is of type object, not array")) << err;
  EXPECT_TRUE(contains(err, "paths[0]")) << err;
  EXPECT_TRUE(contains(err, "workload.<key>")) << err;
  // A scalar is no array either.
  EXPECT_TRUE(contains(set_error("workload.kind[0]"), "of type string, not array"));
}

TEST(JsonTest, SetAtPathRejectsBadIndices) {
  const std::string past_end = set_error("paths[2].rate_mbps");
  EXPECT_TRUE(contains(past_end, "'paths[2].rate_mbps'")) << past_end;
  EXPECT_TRUE(contains(past_end, "index 2 out of range: 'paths' has 2 elements")) << past_end;
  EXPECT_TRUE(contains(set_error("paths[99999999999999999999999].x"), "bad array index"));
  EXPECT_TRUE(contains(set_error("paths[-1].x"), "bad array index '-1'"));
  EXPECT_TRUE(contains(set_error("paths[].x"), "bad array index ''"));
  EXPECT_TRUE(contains(set_error("paths[0"), "unterminated ["));
  EXPECT_TRUE(contains(set_error("paths[0]x"), "expected '.' after ']'"));
  EXPECT_TRUE(contains(set_error("workload..kind"), "empty key segment"));
  EXPECT_TRUE(contains(set_error("workload."), "empty key segment"));
  EXPECT_EQ(set_error("paths[1]"), "");
}

// --- spec parse/serialize ---------------------------------------------------

TEST(ScenarioSpecTest, MinimalSpecFillsProfileDefaults) {
  const ScenarioSpec s = parse_scenario(R"({
    "paths": [{"profile": "wifi", "rate_mbps": 0.3},
              {"profile": "lte", "rate_mbps": 8.6}]
  })");
  ASSERT_EQ(s.paths.size(), 2u);
  EXPECT_EQ(s.paths[0].name, "wifi");
  EXPECT_EQ(s.paths[0].rtt_ms, 16.0);
  EXPECT_EQ(s.paths[1].name, "lte");
  EXPECT_EQ(s.paths[1].rtt_ms, 80.0);
  EXPECT_EQ(s.paths[0].queue_packets, 40);
  EXPECT_EQ(s.paths[0].up_mbps, 100.0);
  EXPECT_EQ(s.scheduler, "default");
  EXPECT_EQ(s.conn.cc, "lia");
  EXPECT_EQ(s.workload.kind, WorkloadKind::kStream);
  EXPECT_EQ(s.seed, 1u);
}

// Every field off its default, covering all variation kinds that serialize.
ScenarioSpec full_spec() {
  ScenarioSpec s;
  s.name = "everything";
  PathSpec a;
  a.profile = PathProfile::kCustom;
  a.name = "sat";
  a.rate_mbps = 1.6;
  a.rtt_ms = 612.25;
  a.queue_packets = 17;
  a.loss_rate = 0.013;
  a.up_mbps = 42.5;
  a.variation.kind = VariationKind::kSchedule;
  a.variation.schedule = {{0.0, 1.6}, {30.5, 0.8}};
  PathSpec b = lte_path(8.47);
  b.variation.kind = VariationKind::kJitter;
  b.variation.jitter_frac = 0.35;
  b.variation.jitter_interval_s = 2.5;
  PathSpec c = wifi_path(4.2);
  c.variation.kind = VariationKind::kRandom;
  c.variation.levels_mbps = {0.3, 1.1, 8.6};
  c.variation.mean_interval_s = 12.5;
  s.paths = {a, b, c};
  s.subflows_per_path = 2;
  s.scheduler = "blest";
  s.conn.cc = "olia";
  s.conn.idle_cwnd_reset = false;
  s.conn.opportunistic_rtx = false;
  s.conn.penalization = false;
  s.conn.staging_bytes = 65536;
  s.workload.kind = WorkloadKind::kDownload;
  s.workload.video_s = 60.5;
  s.workload.abr = "rate";
  s.workload.bytes = 1 << 20;
  s.workload.runs = 7;
  s.seed = 123456789;
  s.trace_seed = 42;
  s.record.collect_traces = true;
  s.record.summarize = true;
  return s;
}

// full_spec() plus every optional block, every field off its default. The
// first path carries every path key (a schedule variation with levels, all
// four fault models). Traffic and a path manager are both enabled, which no
// parsed spec may combine: round trips drop one of the two.
ScenarioSpec every_block_spec() {
  ScenarioSpec s = full_spec();
  PathSpec& a = s.paths[0];
  a.variation.levels_mbps = {0.8, 1.6};
  a.variation.mean_interval_s = 7.5;
  a.variation.jitter_frac = 0.1;
  a.variation.jitter_interval_s = 1.25;
  a.faults.gilbert_elliott = {true, 0.02, 0.3, 0.001, 0.6};
  a.faults.outages = {{1.5, 0.25}};
  a.faults.flap = {true, 0.5, 0.15, 0.2};
  a.faults.reorder = {true, 0.05, 30.0, 12.0};
  s.traffic = {true, 4, 1.5, 64, 131072, "pareto", 2.5, 9.5, {CrossTrafficSpec{1, 2, 0.5}}};
  PathManagerSpec& pm = s.path_manager;
  pm.enabled = true;
  pm.tick_ms = 5.0;
  pm.drain_timeout_s = 1.5;
  pm.join_delay_rtt = false;
  pm.events = {{1.0, "remove", 2, "abandon"}};
  pm.cap = {true, 6, 32768, {0, 2}};
  pm.backup = {true, {1}, 3};
  return s;
}

TEST(ScenarioSpecTest, SerializeParseRoundTripIsFieldExact) {
  ScenarioSpec with_traffic = every_block_spec();
  with_traffic.path_manager = {};
  ScenarioSpec with_path_manager = every_block_spec();
  with_path_manager.traffic = {};
  for (const ScenarioSpec& s : {full_spec(), with_traffic, with_path_manager}) {
    const ScenarioSpec back = parse_scenario(serialize_scenario(s));
    EXPECT_EQ(back, s);
    // And the text form is a fixed point.
    EXPECT_EQ(serialize_scenario(back), serialize_scenario(s));
  }
}

// Every key path of `j` once, in first-seen order; array elements are "[]".
void collect_key_paths(const Json& j, const std::string& prefix, std::vector<std::string>& out) {
  if (j.is_array()) {
    for (const Json& e : j.items()) collect_key_paths(e, prefix + "[]", out);
  } else if (j.is_object()) {
    for (const auto& [key, value] : j.members()) {
      const std::string path = prefix.empty() ? key : prefix + "." + key;
      if (std::find(out.begin(), out.end(), path) == out.end()) out.push_back(path);
      collect_key_paths(value, path, out);
    }
  }
}

// The serialized schema, key by key in order: a field missing from (or moved
// in) the spec walk fails here rather than in a golden.
TEST(ScenarioSpecTest, SerializedKeysAreTheWholeSchemaInOrder) {
  std::vector<std::string> keys;
  collect_key_paths(scenario_to_json(every_block_spec()), "", keys);
  const std::vector<std::string> expected = {
      "name", "paths", "paths[].profile", "paths[].name", "paths[].rate_mbps", "paths[].rtt_ms",
      "paths[].queue_packets", "paths[].loss_rate", "paths[].up_mbps", "paths[].variation",
      "paths[].variation.kind", "paths[].variation.schedule", "paths[].variation.schedule[].at_s",
      "paths[].variation.schedule[].mbps", "paths[].variation.levels_mbps",
      "paths[].variation.mean_interval_s", "paths[].variation.jitter_frac",
      "paths[].variation.jitter_interval_s", "paths[].faults", "paths[].faults.gilbert_elliott",
      "paths[].faults.gilbert_elliott.p_good_bad", "paths[].faults.gilbert_elliott.p_bad_good",
      "paths[].faults.gilbert_elliott.loss_good", "paths[].faults.gilbert_elliott.loss_bad",
      "paths[].faults.outages", "paths[].faults.outages[].at_s", "paths[].faults.outages[].for_s",
      "paths[].faults.flap", "paths[].faults.flap.period_s", "paths[].faults.flap.down_s",
      "paths[].faults.flap.start_s", "paths[].faults.reorder", "paths[].faults.reorder.prob",
      "paths[].faults.reorder.delay_ms", "paths[].faults.reorder.jitter_ms", "subflows_per_path",
      "scheduler", "conn", "conn.cc", "conn.idle_cwnd_reset", "conn.opportunistic_rtx",
      "conn.penalization", "conn.staging_bytes", "workload", "workload.kind", "workload.video_s",
      "workload.abr", "workload.bytes", "workload.runs", "traffic", "traffic.flows",
      "traffic.arrival_rate_per_s", "traffic.max_arrivals", "traffic.flow_bytes",
      "traffic.size_dist", "traffic.pareto_alpha", "traffic.duration_s", "traffic.cross",
      "traffic.cross[].path", "traffic.cross[].flows", "traffic.cross[].start_s", "path_manager",
      "path_manager.tick_ms", "path_manager.drain_timeout_s", "path_manager.join_delay_rtt",
      "path_manager.events", "path_manager.events[].at_s", "path_manager.events[].action",
      "path_manager.events[].path", "path_manager.events[].mode", "path_manager.cap",
      "path_manager.cap.max_subflows", "path_manager.cap.bytes_per_subflow",
      "path_manager.cap.paths", "path_manager.backup", "path_manager.backup.paths",
      "path_manager.backup.promote_after_rtos", "seed", "trace_seed", "record",
      "record.collect_traces", "record.summarize"};
  EXPECT_EQ(keys, expected);
}

TEST(ScenarioSpecTest, ParsedTextRoundTripsThroughSerializer) {
  const std::string text = R"({
    "name": "preset",
    "paths": [{"profile": "wifi", "rate_mbps": 0.8,
               "variation": {"kind": "random", "levels_mbps": [0.3, 8.6]}},
              {"profile": "lte", "rate_mbps": 9.0, "rtt_ms": 70, "loss_rate": 0.001}],
    "scheduler": "ecf",
    "workload": {"kind": "stream", "video_s": 180, "runs": 3},
    "seed": 509,
    "trace_seed": 9009
  })";
  const ScenarioSpec first = parse_scenario(text);
  const ScenarioSpec second = parse_scenario(serialize_scenario(first));
  EXPECT_EQ(second, first);
}

TEST(ScenarioSpecTest, FaultsBlockRoundTripsFieldExact) {
  // Every fault sub-block populated with non-default values; serialize ->
  // parse must reproduce the spec exactly (this is what makes
  // `mps_run --print-spec` a faithful record of a faulted run).
  ScenarioSpec s;
  s.paths = {wifi_path(8.0), lte_path(10.0)};
  FaultSpec& f = s.paths[0].faults;
  f.gilbert_elliott.enabled = true;
  f.gilbert_elliott.p_good_bad = 0.02;
  f.gilbert_elliott.p_bad_good = 0.3;
  f.gilbert_elliott.loss_good = 0.001;
  f.gilbert_elliott.loss_bad = 0.6;
  f.outages.push_back({1.5, 0.25});
  f.outages.push_back({4.0, 0.1});
  f.flap.enabled = true;
  f.flap.period_s = 0.5;
  f.flap.down_s = 0.15;
  f.flap.start_s = 0.2;
  s.paths[1].faults.reorder.enabled = true;
  s.paths[1].faults.reorder.prob = 0.05;
  s.paths[1].faults.reorder.delay_ms = 30.0;
  s.paths[1].faults.reorder.jitter_ms = 30.0;
  const ScenarioSpec back = parse_scenario(serialize_scenario(s));
  EXPECT_EQ(back, s);
  EXPECT_EQ(serialize_scenario(back), serialize_scenario(s));
  // And a hand-written faults block parses to the same structure.
  const ScenarioSpec parsed = parse_scenario(R"({
    "paths": [{"profile": "wifi", "rate_mbps": 8,
               "faults": {"gilbert_elliott": {"p_good_bad": 0.02, "p_bad_good": 0.3,
                                              "loss_good": 0.001, "loss_bad": 0.6},
                          "outages": [{"at_s": 1.5, "for_s": 0.25},
                                      {"at_s": 4.0, "for_s": 0.1}],
                          "flap": {"period_s": 0.5, "down_s": 0.15, "start_s": 0.2}}},
              {"profile": "lte", "rate_mbps": 10,
               "faults": {"reorder": {"prob": 0.05, "delay_ms": 30, "jitter_ms": 30}}}]
  })");
  EXPECT_EQ(parsed.paths[0].faults, s.paths[0].faults);
  EXPECT_EQ(parsed.paths[1].faults, s.paths[1].faults);
}


// Errors must name the offending key path.
void expect_spec_error(const std::string& text, const std::string& key) {
  try {
    (void)parse_scenario(text);
    FAIL() << "expected invalid_argument mentioning " << key;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
        << "message '" << e.what() << "' does not mention '" << key << "'";
  }
}

TEST(ScenarioSpecTest, InvalidSpecsNameTheOffendingKey) {
  expect_spec_error(R"({"paths": [{"profile": "wifi"}]})", "paths[0].rate_mbps");
  expect_spec_error(R"({"paths": [{"profile": "wifi", "rate_mbps": 1, "rtt_mss": 20}]})",
                    "paths[0].rtt_mss");
  expect_spec_error(R"({"paths": [{"profile": "dsl", "rate_mbps": 1}]})",
                    "paths[0].profile");
  expect_spec_error(R"({"paths": [{"profile": "wifi", "rate_mbps": 1},
                                  {"profile": "lte", "rate_mbps": 1,
                                   "variation": {"kind": "wobble"}}]})",
                    "paths[1].variation.kind");
  expect_spec_error(R"({"paths": [{"profile": "wifi", "rate_mbps": 1}],
                        "scheduler": "fastest"})",
                    "scheduler");
  expect_spec_error(R"({"paths": [{"profile": "wifi", "rate_mbps": 1}],
                        "conn": {"cc": "bbr"}})",
                    "conn.cc");
  expect_spec_error(R"({"paths": [{"profile": "wifi", "rate_mbps": 1}],
                        "workload": {"runs": 0}})",
                    "workload.runs");
  expect_spec_error(R"({"paths": [{"profile": "wifi", "rate_mbps": 1}], "sede": 3})",
                    "sede");
}

TEST(ScenarioSpecTest, InvalidFaultsNameTheOffendingKey) {
  // p_bad_good = 0 makes the bad state absorbing (that's an outage, not GE).
  expect_spec_error(R"({"paths": [{"profile": "wifi", "rate_mbps": 1,
                        "faults": {"gilbert_elliott": {"p_good_bad": 0.1,
                                                       "p_bad_good": 0}}}]})",
                    "paths[0].faults.gilbert_elliott.p_bad_good");
  expect_spec_error(R"({"paths": [{"profile": "wifi", "rate_mbps": 1,
                        "faults": {"outages": [{"at_s": 1}]}}]})",
                    "faults.outages[0].for_s");
  expect_spec_error(R"({"paths": [{"profile": "wifi", "rate_mbps": 1,
                        "faults": {"flap": {"period_s": 1, "down_s": 2}}}]})",
                    "faults.flap.down_s");
  expect_spec_error(R"({"paths": [{"profile": "wifi", "rate_mbps": 1,
                        "faults": {"reorder": {"prob": 1.5}}}]})",
                    "faults.reorder.prob");
  expect_spec_error(R"({"paths": [{"profile": "wifi", "rate_mbps": 1,
                        "faults": {}}]})",
                    "faults");
}

// The runners hold these counts in an int: a value past INT_MAX must be
// refused at parse time, not wrapped (2^32 + 1 would read as 1).
TEST(ScenarioSpecTest, IntCountsAboveIntMaxAreRejected) {
  for (const char* key : {"subflows_per_path", "workload.runs", "path_manager.cap.max_subflows",
                          "path_manager.backup.promote_after_rtos"}) {
    Json doc = Json::parse(R"({"paths": [{"profile": "wifi", "rate_mbps": 1},
                                         {"profile": "lte", "rate_mbps": 1}],
                               "path_manager": {"cap": {"paths": [0]},
                                                "backup": {"paths": [1]}}})");
    EXPECT_NO_THROW((void)scenario_from_json(doc)) << key;
    set_at_path(doc, key, Json::number(std::int64_t{4294967297}));
    try {
      (void)scenario_from_json(doc);
      ADD_FAILURE() << key << " = 4294967297 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), std::string("scenario spec: ") + key +
                                           ": must be <= 2147483647");
    }
  }
}

// The traffic engine plans one entry per flow up front: a flow count past
// kMaxTrafficFlows must fail at parse time naming its key, not in the
// allocator (2^32 + 1 flows used to end in std::bad_alloc).
TEST(ScenarioSpecTest, TrafficFlowCountsAboveTheBoundAreRejected) {
  for (const char* key : {"traffic.flows", "traffic.cross[0].flows", "traffic.max_arrivals"}) {
    Json doc = Json::parse(R"({"paths": [{"profile": "wifi", "rate_mbps": 1}],
                               "traffic": {"cross": [{"path": 0}]}})");
    set_at_path(doc, key, Json::number(kMaxTrafficFlows));
    EXPECT_NO_THROW((void)scenario_from_json(doc)) << key;
    for (std::int64_t v : {kMaxTrafficFlows + 1, std::int64_t{4294967297}}) {
      set_at_path(doc, key, Json::number(v));
      try {
        (void)scenario_from_json(doc);
        ADD_FAILURE() << key << " = " << v << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()),
                  std::string("scenario spec: ") + key + ": must be <= 1000000");
      }
    }
  }
}

// The clock counts int64 nanoseconds: a time past it used to overflow the
// seconds-to-nanoseconds cast (traffic.duration_s = 1e10 ran nothing and
// exited 0) or schedule into the past (rtt_ms = 1e300 aborted the run).
// Every time-valued key shares one bound, 1e8 s, and names itself.
TEST(ScenarioSpecTest, TimeKeysBeyondTheClockAreRejected) {
  const char* const kTrafficDoc = R"({
      "paths": [{"profile": "wifi", "rate_mbps": 1,
                 "variation": {"kind": "schedule", "schedule": [{"at_s": 0, "mbps": 1}]},
                 "faults": {"outages": [{"at_s": 1, "for_s": 1}], "flap": {},
                            "reorder": {}}}],
      "traffic": {"cross": [{"path": 0}]}})";
  const char* const kPathManagerDoc = R"({
      "paths": [{"profile": "wifi", "rate_mbps": 1}],
      "path_manager": {"events": [{"at_s": 1, "action": "remove", "path": 0}]}})";
  struct Key {
    const char* doc;
    const char* path;
    bool ms;
  };
  const Key keys[] = {
      {kTrafficDoc, "paths[0].rtt_ms", true},
      {kTrafficDoc, "paths[0].variation.schedule[0].at_s", false},
      {kTrafficDoc, "paths[0].variation.mean_interval_s", false},
      {kTrafficDoc, "paths[0].variation.jitter_interval_s", false},
      {kTrafficDoc, "paths[0].faults.outages[0].at_s", false},
      {kTrafficDoc, "paths[0].faults.outages[0].for_s", false},
      {kTrafficDoc, "paths[0].faults.flap.period_s", false},
      {kTrafficDoc, "paths[0].faults.flap.start_s", false},
      {kTrafficDoc, "paths[0].faults.reorder.delay_ms", true},
      {kTrafficDoc, "paths[0].faults.reorder.jitter_ms", true},
      {kTrafficDoc, "workload.video_s", false},
      {kTrafficDoc, "traffic.cross[0].start_s", false},
      {kTrafficDoc, "traffic.duration_s", false},
      {kPathManagerDoc, "path_manager.tick_ms", true},
      {kPathManagerDoc, "path_manager.drain_timeout_s", false},
      {kPathManagerDoc, "path_manager.events[0].at_s", false},
  };
  for (const Key& k : keys) {
    SCOPED_TRACE(k.path);
    Json doc = Json::parse(k.doc);
    const double bound = k.ms ? 1e11 : 1e8;
    set_at_path(doc, k.path, Json::number(bound));
    EXPECT_NO_THROW((void)scenario_from_json(doc));
    for (const double v : {bound * 1.5, 1e10 * (k.ms ? 1e3 : 1.0), 1e300}) {
      set_at_path(doc, k.path, Json::number(v));
      try {
        (void)scenario_from_json(doc);
        ADD_FAILURE() << k.path << " = " << v << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()), std::string("scenario spec: ") + k.path +
                                             (k.ms ? ": must be <= 1e11 (ms)"
                                                   : ": must be <= 1e8 (s)"));
      }
    }
  }
}

TEST(ScenarioSpecTest, TrafficBlockRoundTripsFieldExact) {
  ScenarioSpec s;
  s.paths = {wifi_path(8.0), lte_path(10.0)};
  s.scheduler = "ecf";
  s.traffic.enabled = true;
  s.traffic.flows = 4;
  s.traffic.arrival_rate_per_s = 1.5;
  s.traffic.max_arrivals = 64;
  s.traffic.flow_bytes = 131072;
  s.traffic.size_dist = "pareto";
  s.traffic.pareto_alpha = 2.5;
  s.traffic.duration_s = 9.5;
  s.traffic.cross = {CrossTrafficSpec{1, 2, 0.5}, CrossTrafficSpec{0, 1, 0.0}};
  const ScenarioSpec back = parse_scenario(serialize_scenario(s));
  EXPECT_EQ(back, s);
  EXPECT_EQ(serialize_scenario(back), serialize_scenario(s));
  // A hand-written traffic block parses to the same structure.
  const ScenarioSpec parsed = parse_scenario(R"({
    "paths": [{"profile": "wifi", "rate_mbps": 8},
              {"profile": "lte", "rate_mbps": 10}],
    "scheduler": "ecf",
    "traffic": {"flows": 4, "arrival_rate_per_s": 1.5, "max_arrivals": 64,
                "flow_bytes": 131072, "size_dist": "pareto", "pareto_alpha": 2.5,
                "duration_s": 9.5,
                "cross": [{"path": 1, "flows": 2, "start_s": 0.5}, {"path": 0}]}
  })");
  EXPECT_EQ(parsed.traffic, s.traffic);
  // Specs without a traffic block stay traffic-free and serialize without one.
  const ScenarioSpec plain = parse_scenario(
      R"({"paths": [{"profile": "wifi", "rate_mbps": 1}]})");
  EXPECT_FALSE(plain.traffic.enabled);
  EXPECT_EQ(serialize_scenario(plain).find("traffic"), std::string::npos);
}

TEST(ScenarioSpecTest, InvalidTrafficNamesTheOffendingKey) {
  const std::string two_paths = R"("paths": [{"profile": "wifi", "rate_mbps": 1},
                                             {"profile": "lte", "rate_mbps": 1}])";
  expect_spec_error(R"({)" + two_paths + R"(, "traffic": {"flows": 0}})",
                    "traffic.flows");
  expect_spec_error(R"({)" + two_paths + R"(, "traffic": {"arrival_rate_per_s": -1}})",
                    "traffic.arrival_rate_per_s");
  expect_spec_error(R"({)" + two_paths + R"(, "traffic": {"flow_bytes": 0}})",
                    "traffic.flow_bytes");
  expect_spec_error(R"({)" + two_paths + R"(, "traffic": {"size_dist": "uniform"}})",
                    "traffic.size_dist");
  expect_spec_error(R"({)" + two_paths + R"(, "traffic": {"pareto_alpha": 1.0}})",
                    "traffic.pareto_alpha");
  expect_spec_error(R"({)" + two_paths + R"(, "traffic": {"duration_s": 0}})",
                    "traffic.duration_s");
  expect_spec_error(R"({)" + two_paths + R"(, "traffic": {"cross": [{"path": 2}]}})",
                    "traffic.cross[0].path");
  expect_spec_error(R"({)" + two_paths + R"(, "traffic": {"cross": [{"flows": 0}]}})",
                    "traffic.cross[0].flows");
  expect_spec_error(R"({)" + two_paths + R"(, "traffic": {"burst": true}})",
                    "traffic.burst");
}

// --- builder ownership ------------------------------------------------------

void expect_field_equal(const PathConfig& a, const PathConfig& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.down_rate, b.down_rate);
  EXPECT_EQ(a.rtt_base, b.rtt_base);
  EXPECT_EQ(a.queue_packets, b.queue_packets);
  EXPECT_EQ(a.loss_rate, b.loss_rate);
  EXPECT_EQ(a.up_rate, b.up_rate);
  EXPECT_FALSE(a.fault.any());
  EXPECT_FALSE(b.fault.any());
}

ScenarioSpec tiny_stream_spec() {
  ScenarioSpec s;
  s.paths = {wifi_path(0.8), lte_path(8.6)};
  s.scheduler = "ecf";
  s.workload.video_s = 5.0;
  return s;
}

TEST(WorldBuilderTest, NoRecorderUnlessAsked) {
  WorldBuilder b(tiny_stream_spec());
  auto world = b.build();
  EXPECT_EQ(b.recorder(), nullptr);
  EXPECT_EQ(world->path_count(), 2u);
}

TEST(WorldBuilderTest, OwnsRecorderWhenSpecRequestsIt) {
  ScenarioSpec s = tiny_stream_spec();
  s.record.summarize = true;
  WorldBuilder b(s);
  auto world = b.build();
  EXPECT_NE(b.recorder(), nullptr);
}

TEST(WorldBuilderTest, CallerRecorderWinsOverSpec) {
  ScenarioSpec s = tiny_stream_spec();
  s.record.summarize = true;
  WorldBuilder b(s);
  FlightRecorder mine;
  auto world = b.build(&mine);
  EXPECT_EQ(b.recorder(), &mine);
}

TEST(WorldBuilderTest, RandomVariationTakesTraceInitialRate) {
  ScenarioSpec s = tiny_stream_spec();
  s.paths[0].variation.kind = VariationKind::kRandom;
  s.paths[0].variation.levels_mbps = {0.3, 1.1, 8.6};
  s.trace_seed = 7;
  WorldBuilder b(s);
  ASSERT_FALSE(b.path_traces()[0].empty());
  EXPECT_EQ(b.path_configs()[0].down_rate, b.path_traces()[0].front().rate);
  EXPECT_TRUE(b.path_traces()[1].empty());
  // The rate is the only non-profile field.
  expect_field_equal(b.path_configs()[0],
                     wifi_profile(Rate::mbps(b.path_traces()[0].front().rate.to_mbps())));
}

// Every runner builds its paths from WorldBuilder::path_configs(): a path
// that sets only its rate must resolve field-equal to its technology profile
// at that rate, for every rate the paper's figure grids use.
TEST(WorldBuilderTest, RateOnlyPathsEqualTheirProfiles) {
  std::vector<double> rates = paper_bandwidth_grid();
  for (int mbps = 1; mbps <= 10; ++mbps) rates.push_back(mbps);  // Figs. 18-21 grids
  for (const double wifi : rates) {
    for (const double lte : rates) {
      SCOPED_TRACE(std::to_string(wifi) + "/" + std::to_string(lte));
      ScenarioSpec s = tiny_stream_spec();
      s.paths = {wifi_path(wifi), lte_path(lte)};
      const WorldBuilder b(s);
      expect_field_equal(b.path_configs()[0], wifi_profile(Rate::mbps(wifi)));
      expect_field_equal(b.path_configs()[1], lte_profile(Rate::mbps(lte)));
    }
  }
}

// --- determinism ------------------------------------------------------------

class ScopedJobsEnv {
 public:
  explicit ScopedJobsEnv(const char* value) {
    const char* old = std::getenv("MPS_BENCH_JOBS");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value) {
      ::setenv("MPS_BENCH_JOBS", value, 1);
    } else {
      ::unsetenv("MPS_BENCH_JOBS");
    }
  }
  ~ScopedJobsEnv() {
    if (had_old_) {
      ::setenv("MPS_BENCH_JOBS", old_.c_str(), 1);
    } else {
      ::unsetenv("MPS_BENCH_JOBS");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

TEST(ScenarioDeterminismTest, SameSpecIsBitIdenticalAcrossBuilds) {
  const ScenarioSpec s = tiny_stream_spec();
  const StreamingResult a = run_scenario(s).streaming;
  const StreamingResult b = run_scenario(s).streaming;
  EXPECT_EQ(a.mean_bitrate_mbps, b.mean_bitrate_mbps);
  EXPECT_EQ(a.mean_throughput_mbps, b.mean_throughput_mbps);
  EXPECT_EQ(a.fraction_fast, b.fraction_fast);
  EXPECT_EQ(a.iw_resets_lte, b.iw_resets_lte);
}

TEST(ScenarioDeterminismTest, SerializedSpecRunsIdenticalToOriginal) {
  ScenarioSpec s = tiny_stream_spec();
  s.paths[0].variation.kind = VariationKind::kJitter;
  s.trace_seed = 11;
  const ScenarioSpec back = parse_scenario(serialize_scenario(s));
  const StreamingResult a = run_scenario(s).streaming;
  const StreamingResult b = run_scenario(back).streaming;
  EXPECT_EQ(a.mean_bitrate_mbps, b.mean_bitrate_mbps);
  EXPECT_EQ(a.mean_throughput_mbps, b.mean_throughput_mbps);
}

TEST(ScenarioDeterminismTest, SerialAndParallelSweepsMatch) {
  const auto run_cells = [] {
    return sweep_map<double>(4, [](std::size_t i) {
      ScenarioSpec s;
      s.paths = {wifi_path(0.8 + 0.4 * static_cast<double>(i)), lte_path(8.6)};
      s.scheduler = i % 2 == 0 ? "default" : "ecf";
      s.workload.video_s = 5.0;
      s.seed = 1 + i;
      return run_scenario(s).streaming.mean_bitrate_mbps;
    });
  };
  std::vector<double> serial, parallel;
  {
    ScopedJobsEnv env("1");
    serial = run_cells();
  }
  {
    ScopedJobsEnv env("4");
    parallel = run_cells();
  }
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace mps
