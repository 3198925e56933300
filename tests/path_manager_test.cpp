// Dynamic path management tests (mptcp/path_manager.h): mid-connection
// subflow churn at the Connection level (drain / abandon / add), the
// PathManager policies layered on top (timed handovers, stuck-drain
// escalation, backup promotion, cap-N growth), the scheduler bugs churn
// flushes out (ECF's armed-hysteresis identity, RoundRobin's cursor, DAPS's
// stale plan, redundant duplication onto draining subflows), and the
// snapshot/fork and jobs-parallelism byte-identity contracts for churned
// topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "app/http.h"
#include "check/invariants.h"
#include "check/stress.h"
#include "core/ecf.h"
#include "exp/download.h"
#include "exp/scenario_run.h"
#include "exp/snapshot.h"
#include "exp/testbed.h"
#include "mptcp/path_manager.h"
#include "scenario/json.h"
#include "scenario/spec.h"
#include "scenario/world.h"
#include "sched/registry.h"
#include "test_util.h"

namespace mps {
namespace {

namespace fs = std::filesystem;

TimePoint at_s(double s) { return TimePoint::origin() + Duration::from_seconds(s); }

TestbedConfig hetero_config() {
  TestbedConfig tb;
  tb.wifi = wifi_profile(Rate::mbps(2.0));
  tb.lte = lte_profile(Rate::mbps(10.0));
  return tb;
}

PathManagerConfig::TimedAction add_action(double when_s, std::size_t path) {
  return {at_s(when_s), PathManagerConfig::TimedAction::Op::kAdd, path,
          Connection::TeardownMode::kDrain};
}

PathManagerConfig::TimedAction remove_action(double when_s, std::size_t path,
                                             Connection::TeardownMode mode) {
  return {at_s(when_s), PathManagerConfig::TimedAction::Op::kRemove, path, mode};
}

// --- Connection-level churn --------------------------------------------------

TEST(ConnectionChurn, DrainDeliversEverythingThenFinalizes) {
  Testbed bed(hetero_config());
  auto conn = bed.make_connection(scheduler_factory("default"));
  BulkSender sender(*conn, 400'000);

  bed.sim().run_until(at_s(0.2));
  ASSERT_NE(conn->subflow_at(0), nullptr);
  conn->remove_subflow(0, Connection::TeardownMode::kDrain);
  EXPECT_TRUE(conn->subflow_at(0)->draining());
  EXPECT_FALSE(conn->subflow_at(0)->schedulable());

  // Drive to completion, finalizing from outside the packet stacks like the
  // PathManager tick does.
  while (conn->delivered_bytes() < 400'000 && bed.sim().now() < at_s(120)) {
    bed.sim().run_until(bed.sim().now() + Duration::millis(50));
    conn->finalize_drained();
    conn->kick();
  }
  conn->finalize_drained();
  EXPECT_EQ(conn->delivered_bytes(), 400'000u);
  // The drained slot is gone, its stats retired, its path attribution kept.
  EXPECT_EQ(conn->subflow_at(0), nullptr);
  EXPECT_GT(conn->retired_stats(0).bytes_sent, 0u);
  EXPECT_GT(conn->bytes_sent_on(bed.wifi()), 0u);
  EXPECT_EQ(conn->subflows().size(), 1u);
}

TEST(ConnectionChurn, AbandonRemapsUnackedBytesOntoSurvivor) {
  Testbed bed(hetero_config());
  auto conn = bed.make_connection(scheduler_factory("default"));
  BulkSender sender(*conn, 400'000);

  bed.sim().run_until(at_s(0.2));
  const Subflow* slow = conn->subflow_at(0);
  ASSERT_NE(slow, nullptr);
  ASSERT_GT(slow->staged_bytes() + slow->inflight_segments(), 0u);
  conn->remove_subflow(0, Connection::TeardownMode::kAbandon);
  // The slot died immediately; its unacked ranges sit on the remap queue
  // until the scheduler re-places them.
  EXPECT_EQ(conn->subflow_at(0), nullptr);

  bed.sim().run_until(at_s(120));
  EXPECT_EQ(conn->delivered_bytes(), 400'000u);
  EXPECT_EQ(conn->remap_bytes(), 0u);
  EXPECT_GT(conn->meta_stats().remapped_segments, 0u);
}

// The staging queue keeps consecutive segments as runs, but abandon remaps
// per segment: one remap entry per staged or in-flight segment not yet
// meta-acked, in data order. Remap entries the survivor takes at once are
// counted in remapped_segments; the rest wait in the queue, as the tail.
TEST(ConnectionChurn, AbandonRemapsStagedRunsOneEntryPerSegment) {
  Testbed bed(hetero_config());
  auto conn = bed.make_connection(scheduler_factory("default"));
  BulkSender sender(*conn, 400'000);

  bed.sim().run_until(at_s(0.2));
  const Subflow* slow = conn->subflow_at(0);
  ASSERT_NE(slow, nullptr);
  ASSERT_GE(slow->staged_bytes(), 4u * slow->mss());  // a multi-segment run
  std::vector<std::pair<std::uint64_t, std::uint64_t>> expected;
  slow->collect_data_ranges(expected);
  std::sort(expected.begin(), expected.end());
  std::erase_if(expected, [&](const auto& r) { return r.second <= conn->data_una(); });
  std::uint64_t expected_bytes = 0;
  for (const auto& [begin, end] : expected) {
    EXPECT_LE(end - begin, slow->mss());
    expected_bytes += end - begin;
  }
  const std::uint64_t remapped_before = conn->meta_stats().remapped_segments;

  conn->remove_subflow(0, Connection::TeardownMode::kAbandon);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> waiting;
  conn->collect_remap_ranges(waiting);
  const std::uint64_t taken = conn->meta_stats().remapped_segments - remapped_before;
  ASSERT_EQ(taken + waiting.size(), expected.size());
  EXPECT_TRUE(std::equal(waiting.begin(), waiting.end(), expected.begin() + taken));
  std::uint64_t waiting_bytes = 0;
  for (const auto& [begin, end] : waiting) waiting_bytes += end - begin;
  EXPECT_EQ(conn->remap_bytes(), waiting_bytes);
  EXPECT_LE(waiting_bytes, expected_bytes);

  bed.sim().run_until(at_s(120));
  EXPECT_EQ(conn->delivered_bytes(), 400'000u);
  // Entries the meta ack overtakes while queued are dropped, not remapped.
  EXPECT_LE(conn->meta_stats().remapped_segments - remapped_before, expected.size());
  EXPECT_EQ(conn->remap_bytes(), 0u);
}

TEST(ConnectionChurn, AddSubflowMidRunCarriesTraffic) {
  // Start single-path, join the second interface mid-transfer.
  WorldConfig wc;
  wc.paths.push_back(wifi_profile(Rate::mbps(2.0)));
  wc.paths.push_back(lte_profile(Rate::mbps(10.0)));
  World world(wc);
  auto conn = world.make_connection_on({0}, scheduler_factory("default"));
  BulkSender sender(*conn, 800'000);

  world.sim().run_until(at_s(0.5));
  EXPECT_EQ(world.sim().now(), at_s(0.5));
  const std::uint32_t id = conn->add_subflow(world.path(1), world.path(1).rtt_base());
  EXPECT_EQ(id, 1u);
  EXPECT_FALSE(conn->subflow_at(1)->established());

  while (conn->delivered_bytes() < 800'000 && world.sim().now() < at_s(120)) {
    world.sim().run_until(world.sim().now() + Duration::millis(50));
    conn->kick();
  }
  EXPECT_EQ(conn->delivered_bytes(), 800'000u);
  EXPECT_GT(conn->bytes_sent_on(world.path(1)), 0u);
}

// --- PathManager policies ----------------------------------------------------

TEST(PathManagerTest, TimedHandoverDrainsAndRejoins) {
  DownloadParams p;
  p.wifi_mbps = 2.0;
  p.lte_mbps = 10.0;
  p.bytes = 512 * 1024;
  p.scheduler = "default";
  p.use_path_manager = true;
  p.path_manager.tick = Duration::millis(5);
  p.path_manager.actions = {remove_action(0.05, 0, Connection::TeardownMode::kDrain),
                            add_action(0.3, 0)};

  DownloadRun run(p);
  run.start();
  run.run_to(at_s(600));
  const DownloadResult res = run.finish();
  ASSERT_NE(run.path_manager(), nullptr);
  const PathManager::Stats& st = run.path_manager()->stats();
  EXPECT_EQ(st.drains_started, 1u);
  EXPECT_EQ(st.finalized, 1u);
  EXPECT_EQ(st.subflows_added, 1u);
  EXPECT_EQ(st.drain_timeouts, 0u);
  EXPECT_GT(res.completion, Duration::zero());
  ASSERT_EQ(res.path_bytes.size(), 2u);
  EXPECT_GT(res.path_bytes[0], 0u);
  EXPECT_GT(res.path_bytes[1], 0u);
  // Slot 0 drained away and the re-join took slot 2.
  EXPECT_EQ(run.connection().slot_count(), 3u);
  EXPECT_EQ(run.connection().subflow_at(0), nullptr);
}

TEST(PathManagerTest, AbandonHandoverRemapsSegments) {
  DownloadParams p;
  p.wifi_mbps = 2.0;
  p.lte_mbps = 10.0;
  p.bytes = 512 * 1024;
  p.scheduler = "default";
  p.use_path_manager = true;
  p.path_manager.tick = Duration::millis(5);
  // Abandon the low-RTT wifi path: min-RTT loads it first, so at 0.05 s it
  // holds unacked data that must flow through the remap queue.
  p.path_manager.actions = {remove_action(0.05, 0, Connection::TeardownMode::kAbandon),
                            add_action(0.3, 0)};

  DownloadRun run(p);
  run.start();
  run.run_to(at_s(600));
  const DownloadResult res = run.finish();
  EXPECT_EQ(run.path_manager()->stats().abandons, 1u);
  EXPECT_GT(res.completion, Duration::zero());
  // The abandoned subflow held unacked data; it had to be re-scheduled.
  EXPECT_GT(res.remapped_segments, 0u);
  EXPECT_EQ(run.connection().remap_bytes(), 0u);
}

TEST(PathManagerTest, StuckDrainEscalatesToAbandonAfterTimeout) {
  // Kill the wifi downlink right before draining it: the drain can never
  // complete (retransmissions die on the wire), so the manager must abandon
  // it at the timeout and remap its data.
  ScenarioSpec spec;
  spec.paths.push_back(wifi_path(2.0));
  spec.paths.push_back(lte_path(10.0));
  spec.paths[0].faults.outages.push_back(OutageSpec{0.04, 30.0});
  spec.workload.kind = WorkloadKind::kDownload;
  spec.workload.bytes = 256 * 1024;
  spec.path_manager.enabled = true;
  spec.path_manager.tick_ms = 5.0;
  spec.path_manager.drain_timeout_s = 0.25;
  spec.path_manager.events = {PathEventSpec{0.05, "remove", 0, "drain"}};

  DownloadParams p = download_params_from_spec(spec);
  DownloadRun run(p);
  run.start();
  run.run_to(at_s(600));
  const DownloadResult res = run.finish();
  const PathManager::Stats& st = run.path_manager()->stats();
  EXPECT_EQ(st.drains_started, 1u);
  EXPECT_EQ(st.drain_timeouts, 1u);
  EXPECT_GT(res.completion, Duration::zero());
  EXPECT_LT(res.completion, Duration::seconds(10));  // not stalled on the dead drain
}

TEST(PathManagerTest, BackupPromotedAfterRtoBackoffs) {
  // Three paths, the third held in reserve; a long outage on wifi drives its
  // subflow into RTO backoff until the manager promotes the backup.
  ScenarioSpec spec;
  spec.paths.push_back(wifi_path(4.0));
  spec.paths.push_back(lte_path(6.0));
  spec.paths.push_back(lte_path(8.0));
  spec.paths[0].faults.outages.push_back(OutageSpec{0.5, 6.0});
  spec.workload.kind = WorkloadKind::kDownload;
  spec.workload.bytes = 4 * 1024 * 1024;
  spec.path_manager.enabled = true;
  spec.path_manager.backup.enabled = true;
  spec.path_manager.backup.paths = {2};
  spec.path_manager.backup.promote_after_rtos = 2;

  DownloadParams p = download_params_from_spec(spec);
  ASSERT_EQ(p.initial_paths.size(), 2u);  // backup path held back at start
  DownloadRun run(p);
  run.start();
  EXPECT_EQ(run.connection().slot_count(), 2u);
  run.run_to(at_s(600));
  const DownloadResult res = run.finish();
  EXPECT_GE(run.path_manager()->stats().promotions, 1u);
  ASSERT_EQ(res.path_bytes.size(), 3u);
  EXPECT_GT(res.path_bytes[2], 0u);  // the promoted path carried data
  EXPECT_GT(res.completion, Duration::zero());
}

TEST(PathManagerTest, CapGrowthFollowsDeliveredBytes) {
  DownloadParams p;
  p.wifi_mbps = 8.0;
  p.lte_mbps = 8.0;
  p.bytes = 512 * 1024;
  p.scheduler = "rr";
  p.initial_paths = {0};  // start single-subflow, grow from there
  p.use_path_manager = true;
  p.path_manager.tick = Duration::millis(5);
  p.path_manager.max_subflows = 4;
  p.path_manager.bytes_per_subflow = 64 * 1024;
  p.path_manager.growth_paths = {1, 0};

  DownloadRun run(p);
  run.start();
  run.run_to(at_s(600));
  const DownloadResult res = run.finish();
  const PathManager::Stats& st = run.path_manager()->stats();
  EXPECT_GT(res.completion, Duration::zero());
  // 512 KB at 64 KB per subflow wants well past the cap: growth must have
  // fired and must have stopped at max_subflows.
  EXPECT_GE(st.cap_adds, 3u);
  EXPECT_EQ(run.path_manager()->live_subflows(), 4u);
  EXPECT_EQ(run.connection().slot_count(), 4u);
  ASSERT_EQ(res.path_bytes.size(), 2u);
  EXPECT_GT(res.path_bytes[1], 0u);  // growth alternated onto the second path
}

// --- scheduler regressions churn flushes out --------------------------------

TEST(SchedulerChurnRegression, EcfClearsArmedWaitOnIdentityChange) {
  // Drive ECF until it arms waiting_ for the fast subflow, then abandon that
  // subflow. With the pre-fix bare bool the stale bit survives into the next
  // pick against an unrelated pair; the fix ties the bit to the subflow id
  // and on_subflow_change drops it when that subflow is gone.
  TestbedConfig tb = hetero_config();
  Testbed bed(tb);
  auto conn = bed.make_connection(scheduler_factory("ecf"));
  auto& ecf = static_cast<EcfScheduler&>(conn->scheduler());
  BulkSender sender(*conn, 2'000'000);

  TimePoint cap = at_s(60);
  while (!ecf.waiting() && bed.sim().now() < cap) {
    bed.sim().run_until(bed.sim().now() + Duration::millis(10));
  }
  ASSERT_TRUE(ecf.waiting()) << "ECF never armed its hysteresis on this workload";
  const std::uint32_t armed = ecf.waiting_for();
  ASSERT_NE(armed, EcfScheduler::kNoSubflow);

  conn->remove_subflow(armed, Connection::TeardownMode::kAbandon);
  // remove_subflow notified the scheduler; the armed wait must be gone.
  EXPECT_FALSE(ecf.waiting());
  EXPECT_EQ(ecf.waiting_for(), EcfScheduler::kNoSubflow);

  bed.sim().run_until(at_s(120));
  EXPECT_EQ(conn->delivered_bytes(), 2'000'000u);
}

TEST(SchedulerChurnRegression, EcfKeepsWaitWhenOtherSubflowChanges) {
  // The identity check is precise: churn that leaves the armed subflow
  // schedulable must not drop the earned hysteresis.
  TestbedConfig tb = hetero_config();
  Testbed bed(tb);
  auto conn = bed.make_connection(scheduler_factory("ecf"));
  auto& ecf = static_cast<EcfScheduler&>(conn->scheduler());
  BulkSender sender(*conn, 2'000'000);

  while (!ecf.waiting() && bed.sim().now() < at_s(60)) {
    bed.sim().run_until(bed.sim().now() + Duration::millis(10));
  }
  ASSERT_TRUE(ecf.waiting());
  const std::uint32_t armed = ecf.waiting_for();

  // Adding a third subflow is a membership change that must not clear it.
  conn->add_subflow(bed.lte(), Duration::zero());
  EXPECT_TRUE(ecf.waiting());
  EXPECT_EQ(ecf.waiting_for(), armed);
}

TEST(SchedulerChurnRegression, RoundRobinSurvivesRemovalAndKeepsRotating) {
  // Three equal paths under rr; the middle subflow is abandoned mid-run.
  // The id cursor must step over the hole (the pre-fix index cursor skewed
  // onto the wrong subflow or ran off the compacted list).
  WorldConfig wc;
  for (int i = 0; i < 3; ++i) wc.paths.push_back(wifi_profile(Rate::mbps(8.0)));
  World world(wc);
  auto conn = world.make_connection(scheduler_factory("rr"));
  BulkSender sender(*conn, 1'500'000);

  world.sim().run_until(at_s(0.3));
  conn->remove_subflow(1, Connection::TeardownMode::kAbandon);

  while (conn->delivered_bytes() < 1'500'000 && world.sim().now() < at_s(120)) {
    world.sim().run_until(world.sim().now() + Duration::millis(50));
    conn->kick();
  }
  EXPECT_EQ(conn->delivered_bytes(), 1'500'000u);
  // Rotation still alternates over the two survivors.
  EXPECT_GT(conn->subflow_at(0)->stats().bytes_sent, 0u);
  EXPECT_GT(conn->subflow_at(2)->stats().bytes_sent, 0u);
}

TEST(SchedulerChurnRegression, DapsReplansWhenPlannedSubflowLeaves) {
  // DAPS plans onto the low-RTT wifi subflow; abandoning it invalidates the
  // plan mid-epoch. The pre-fix scheduler kept resolving the dead id.
  TestbedConfig tb;
  tb.wifi = wifi_profile(Rate::mbps(6.0));
  tb.lte = lte_profile(Rate::mbps(6.0));
  Testbed bed(tb);
  auto conn = bed.make_connection(scheduler_factory("daps"));
  BulkSender sender(*conn, 1'000'000);

  bed.sim().run_until(at_s(0.3));
  conn->remove_subflow(0, Connection::TeardownMode::kAbandon);

  while (conn->delivered_bytes() < 1'000'000 && bed.sim().now() < at_s(120)) {
    bed.sim().run_until(bed.sim().now() + Duration::millis(50));
    conn->kick();
  }
  EXPECT_EQ(conn->delivered_bytes(), 1'000'000u);
  EXPECT_GT(conn->bytes_sent_on(bed.lte()), 0u);
}

TEST(SchedulerChurnRegression, RedundantDoesNotDuplicateOntoDrainingSubflow) {
  // Under the redundant scheduler every pick duplicates to all other
  // subflows. A draining subflow must be excluded — with the pre-fix
  // duplication it kept receiving staged copies and never reached drained(),
  // so the drain hung until the timeout escalated it.
  DownloadParams p;
  p.wifi_mbps = 8.0;
  p.lte_mbps = 8.0;
  p.bytes = 512 * 1024;
  p.scheduler = "redundant";
  p.use_path_manager = true;
  p.path_manager.tick = Duration::millis(5);
  p.path_manager.drain_timeout = Duration::seconds(30);
  p.path_manager.actions = {remove_action(0.05, 0, Connection::TeardownMode::kDrain)};

  DownloadRun run(p);
  run.start();
  run.run_to(at_s(600));
  const DownloadResult res = run.finish();
  const PathManager::Stats& st = run.path_manager()->stats();
  EXPECT_EQ(st.drains_started, 1u);
  EXPECT_EQ(st.finalized, 1u);       // the drain completed on its own...
  EXPECT_EQ(st.drain_timeouts, 0u);  // ...not via timeout escalation
  EXPECT_GT(res.completion, Duration::zero());
  EXPECT_LT(res.completion, Duration::seconds(20));
}

// --- invariants under churn, all schedulers ---------------------------------

TEST(PathManagerInvariants, AllSchedulersHandoverGridClean) {
  // Every registered scheduler through the handover stress profile (drain +
  // abandon + re-join of both paths under light loss), with the byte
  // conservation checker watching the whole run.
  for (const std::string& sched : scheduler_names()) {
    for (std::uint64_t seed : {1u, 2u}) {
      StressCell cell;
      cell.profile = "handover";
      cell.scheduler = sched;
      cell.seed = seed;
      const StressCellResult r = run_stress_cell(cell);
      EXPECT_TRUE(r.ok()) << sched << " seed=" << seed << ": "
                          << (r.violations.empty() ? "stalled" : r.violations.front());
      EXPECT_GT(r.checks_run, 0u);
    }
  }
}

TEST(PathManagerInvariants, CheckerSeesConservationAcrossAbandon) {
  // Direct conservation probe at the worst moment: immediately after an
  // abandon, while the remap queue holds the orphaned ranges.
  Testbed bed(hetero_config());
  InvariantChecker checker(bed.sim());
  auto conn = bed.make_connection(scheduler_factory("default"));
  checker.watch(*conn);
  BulkSender sender(*conn, 400'000);

  bed.sim().run_until(at_s(0.2));
  conn->remove_subflow(1, Connection::TeardownMode::kAbandon);
  checker.check_now("post-abandon");
  bed.sim().run_until(at_s(120));
  checker.check_now("final");
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_EQ(conn->delivered_bytes(), 400'000u);
}

// --- snapshot/fork and parallelism contracts --------------------------------

std::string download_fingerprint(const DownloadResult& r) {
  std::ostringstream os;
  os << r.completion.to_seconds() << "|" << r.fraction_fast << "|"
     << r.remapped_segments << "|" << r.ooo_delay.count();
  for (std::uint64_t b : r.path_bytes) os << "|" << b;
  return os.str();
}

TEST(PathManagerFork, ForkDuringHandoverWindowIsByteIdentical) {
  DownloadParams p;
  p.wifi_mbps = 2.0;
  p.lte_mbps = 10.0;
  p.bytes = 512 * 1024;
  p.scheduler = "ecf";
  p.seed = 7;
  p.use_path_manager = true;
  p.path_manager.tick = Duration::millis(5);
  p.path_manager.actions = {remove_action(0.05, 0, Connection::TeardownMode::kDrain),
                            remove_action(0.15, 1, Connection::TeardownMode::kAbandon),
                            add_action(0.2, 1), add_action(0.3, 0)};

  const std::string scratch = download_fingerprint(run_download(p));

  // Snapshot times straddling every churn edge: before any action, inside
  // the drain window, between the abandon and the re-joins, after the
  // topology settled.
  for (const double snap_s : {0.0, 0.07, 0.17, 0.25, 0.5}) {
    SCOPED_TRACE(snap_s);
    DownloadRun run(p);
    run.start();
    run.run_to(at_s(snap_s));
    std::unique_ptr<DownloadRun> forked = run.fork();
    EXPECT_EQ(scratch, download_fingerprint(forked->finish()));
  }
}

TEST(PathManagerFork, SourceUnperturbedByForkAtHandover) {
  DownloadParams p;
  p.wifi_mbps = 2.0;
  p.lte_mbps = 10.0;
  p.bytes = 256 * 1024;
  p.scheduler = "default";
  p.use_path_manager = true;
  p.path_manager.tick = Duration::millis(5);
  p.path_manager.actions = {remove_action(0.05, 0, Connection::TeardownMode::kDrain),
                            add_action(0.25, 0)};

  const std::string scratch = download_fingerprint(run_download(p));

  DownloadRun run(p);
  run.start();
  run.run_to(at_s(0.08));  // mid-drain
  std::unique_ptr<DownloadRun> forked = run.fork();
  // Finish the fork FIRST; the source must not notice.
  EXPECT_EQ(scratch, download_fingerprint(forked->finish()));
  EXPECT_EQ(scratch, download_fingerprint(run.finish()));
}

std::string slurp_file(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(PathManagerFork, HandoverPresetJobs1Vs4ByteIdentical) {
  // The commuter preset through the forked sweep at serial and parallel
  // widths: worker count must never leak into churned-topology output.
  ScenarioSpec spec = scenario_from_json(
      Json::parse(slurp_file(fs::path(MPS_SOURCE_DIR) / "scenarios" / "handover_commuter.json")));
  spec.workload.video_s = 5.0;
  spec.workload.runs = 1;

  std::string out[2];
  for (int i = 0; i < 2; ++i) {
    SweepOptions sweep;
    sweep.jobs = i == 0 ? 1 : 4;
    const ScenarioOutcome outcome = run_scenario_forked(spec, 1.0, {}, sweep);
    out[i] = format_outcome(spec, outcome);
  }
  EXPECT_EQ(out[0], out[1]);
  EXPECT_FALSE(out[0].empty());
}

// --- spec round-trip ---------------------------------------------------------

TEST(PathManagerSpec, RoundTripsThroughJson) {
  ScenarioSpec spec;
  spec.name = "pm-roundtrip";
  spec.paths.push_back(wifi_path(8.0));
  spec.paths.push_back(lte_path(10.0));
  spec.paths.push_back(lte_path(12.0));
  spec.workload.kind = WorkloadKind::kDownload;
  spec.path_manager.enabled = true;
  spec.path_manager.tick_ms = 7.5;
  spec.path_manager.drain_timeout_s = 1.25;
  spec.path_manager.join_delay_rtt = false;
  spec.path_manager.events = {PathEventSpec{0.5, "remove", 0, "drain"},
                              PathEventSpec{1.0, "add", 0, "drain"}};
  spec.path_manager.cap.enabled = true;
  spec.path_manager.cap.max_subflows = 3;
  spec.path_manager.cap.bytes_per_subflow = 128 * 1024;
  spec.path_manager.cap.paths = {0, 1};
  spec.path_manager.backup.enabled = true;
  spec.path_manager.backup.paths = {2};
  spec.path_manager.backup.promote_after_rtos = 4;

  const ScenarioSpec back = scenario_from_json(scenario_to_json(spec));
  EXPECT_EQ(spec, back);
  EXPECT_TRUE(back.path_manager.enabled);
}

TEST(PathManagerSpec, StrictValidationRejectsBadBlocks) {
  const std::string base = R"({
    "name": "bad",
    "paths": [{"profile": "wifi", "rate_mbps": 8.0}, {"profile": "lte", "rate_mbps": 10.0}],
    "workload": {"kind": "download"}, "path_manager": )";
  const auto parse_with = [&](const std::string& pm_block) {
    return scenario_from_json(Json::parse(base + pm_block + "}"));
  };
  // Unknown key, out-of-range path, unsorted events, bad mode, bad action.
  EXPECT_THROW(parse_with(R"({"ticks_ms": 5})"), std::invalid_argument);
  EXPECT_THROW(parse_with(R"({"events": [{"at_s": 1, "action": "remove", "path": 2}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse_with(R"({"events": [{"at_s": 2, "action": "add", "path": 0},
                                         {"at_s": 1, "action": "add", "path": 1}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse_with(R"({"events": [{"at_s": 1, "action": "remove", "path": 0,
                                          "mode": "reset"}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse_with(R"({"events": [{"at_s": 1, "action": "toggle", "path": 0}]})"),
               std::invalid_argument);
  // Cap and backup blocks are strict too.
  EXPECT_THROW(parse_with(R"({"cap": {"max_subflows": 0, "bytes_per_subflow": 1,
                                      "paths": [0]}})"),
               std::invalid_argument);
  EXPECT_THROW(parse_with(R"({"backup": {"paths": []}})"), std::invalid_argument);
  // A valid block parses.
  EXPECT_NO_THROW(parse_with(R"({"events": [{"at_s": 1, "action": "remove", "path": 0}]})"));
}

TEST(PathManagerSpec, EveryPathBackupIsRejectedByParamsConversion) {
  ScenarioSpec spec;
  spec.paths.push_back(wifi_path(8.0));
  spec.paths.push_back(lte_path(10.0));
  spec.workload.kind = WorkloadKind::kDownload;
  spec.path_manager.enabled = true;
  spec.path_manager.backup.enabled = true;
  spec.path_manager.backup.paths = {0, 1};
  EXPECT_THROW(download_params_from_spec(spec), std::invalid_argument);
}

}  // namespace
}  // namespace mps
