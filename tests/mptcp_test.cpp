// Tests for the MPTCP meta connection: send-buffer accounting, data-sequence
// reassembly, out-of-order delay measurement, window autotuning,
// opportunistic retransmission, and multi-connection demultiplexing.
#include <gtest/gtest.h>
#include <cstdio>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "app/http.h"
#include "core/ecf.h"
#include "exp/download.h"
#include "exp/scenario_run.h"
#include "exp/streaming.h"
#include "scenario/world.h"
#include "sched/minrtt.h"
#include "sched/registry.h"
#include "test_util.h"
#include "traffic/engine.h"
#include "util/rng.h"

namespace mps {
namespace {

WorldConfig hetero_config() {
  WorldConfig tb = two_path_config(1.0, 10.0);
  return tb;
}

// The per-packet hooks left std::function without growing the connection:
// each is a 32-byte BasicCallback (24 inline bytes), as large as the
// std::function it replaced; the connection was 872 bytes then (x86-64,
// libstdc++; FlowFootprint.PerFlowBodiesStayInBudget holds today's budget).
TEST(ConnectionTest, PerPacketHooksKeepTheConnectionSize) {
  static_assert(sizeof(Connection::on_deliver) == 32);
  static_assert(sizeof(Connection::on_wire_arrival_hook) == 32);
  std::printf("sizeof(Connection) = %zu\n", sizeof(Connection));
  EXPECT_LE(sizeof(Connection), 872u);
}

// The fixed-size bodies every crowd flow pays: two subflows and two
// receivers, the connection, the HTTP exchange and the scheduler (x86-64,
// libstdc++; DESIGN.md §12.4 has the census and what each body holds).
TEST(FlowFootprint, PerFlowBodiesStayInBudget) {
  std::printf("sizeof: Subflow %zu, SubflowReceiver %zu, Connection %zu, HttpExchange %zu,"
              " Scheduler %zu\n",
              sizeof(Subflow), sizeof(SubflowReceiver), sizeof(Connection), sizeof(HttpExchange),
              sizeof(Scheduler));
  EXPECT_LE(sizeof(Subflow), 608u);
  EXPECT_LE(sizeof(SubflowReceiver), 80u);
  EXPECT_LE(sizeof(Connection), 800u);
  EXPECT_LE(sizeof(HttpExchange), 96u);
  EXPECT_LE(sizeof(Scheduler), 56u);
}

TEST(ConnectionTest, SendLimitedBySndbuf) {
  WorldConfig tb = hetero_config();
  tb.conn.sndbuf_bytes = 100 * 1000;
  World bed(tb);
  auto conn = bed.make_connection(scheduler_factory("default"));
  const std::uint64_t accepted = conn->send(1'000'000);
  EXPECT_EQ(accepted, 100 * 1000u);
  EXPECT_EQ(conn->sndbuf_free(), 0u);
}

TEST(ConnectionTest, DeliversAllBytesInOrder) {
  World bed(hetero_config());
  auto conn = bed.make_connection(scheduler_factory("default"));
  std::uint64_t delivered = 0;
  TimePoint last;
  conn->on_deliver = [&](std::uint64_t bytes, TimePoint when) {
    delivered += bytes;
    EXPECT_GE(when, last);
    last = when;
  };
  BulkSender sender(*conn, 500'000);
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(30));
  EXPECT_EQ(delivered, 500'000u);
  EXPECT_EQ(conn->delivered_bytes(), 500'000u);
}

TEST(ConnectionTest, DuplicateHeldSegmentWithLongerPayloadExtendsCoverage) {
  // A held out-of-order segment can be followed by a duplicate of the same
  // data_seq that reaches further (e.g. a re-segmented reinjection). The
  // reorder buffer must adopt the longer coverage: the subflow-level
  // cumulative ack already freed the sender copy, so silently keeping the
  // short one would strand the extra bytes and stall the transfer forever.
  World bed(hetero_config());
  auto conn = bed.make_connection(scheduler_factory("default"));
  std::uint64_t delivered = 0;
  conn->on_deliver = [&](std::uint64_t bytes, TimePoint) { delivered += bytes; };
  const TimePoint t = bed.sim().now();
  conn->on_subflow_deliver(0, 1428, 500, t);
  EXPECT_EQ(conn->meta_ooo_bytes(), 500u);
  conn->on_subflow_deliver(0, 1428, 1428, t);  // longer duplicate wins
  EXPECT_EQ(conn->meta_ooo_bytes(), 1428u);
  conn->on_subflow_deliver(0, 1428, 100, t);  // shorter duplicate is ignored
  EXPECT_EQ(conn->meta_ooo_bytes(), 1428u);
  // Fill the hole: the drain must deliver through the extended coverage.
  conn->on_subflow_deliver(0, 0, 1428, t);
  bed.sim().run();
  EXPECT_EQ(conn->rcv_data_next(), 2u * 1428u);
  EXPECT_EQ(delivered, 2u * 1428u);
  EXPECT_EQ(conn->meta_ooo_bytes(), 0u);
}

TEST(ConnectionTest, SendableCallbackRefillsBuffer) {
  WorldConfig tb = hetero_config();
  tb.conn.sndbuf_bytes = 50'000;
  World bed(tb);
  auto conn = bed.make_connection(scheduler_factory("default"));
  std::uint64_t remaining = 400'000;
  std::uint64_t queued = 0;
  auto push = [&] {
    const std::uint64_t sent = conn->send(remaining);
    queued += sent;
    remaining -= sent;
  };
  conn->on_sendable = push;
  std::uint64_t delivered = 0;
  conn->on_deliver = [&](std::uint64_t b, TimePoint) { delivered += b; };
  push();
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(60));
  EXPECT_EQ(queued, 400'000u);
  EXPECT_EQ(delivered, 400'000u);
}

TEST(ConnectionTest, OooDelayMeasuredPerPacket) {
  World bed(hetero_config());
  auto conn = bed.make_connection(scheduler_factory("default"));
  BulkSender sender(*conn, 2'000'000);
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(60));
  const Samples& ooo = conn->ooo_delay();
  // One sample per delivered packet; heterogeneous paths must produce some
  // nonzero delays.
  EXPECT_GT(ooo.count(), 1000u);
  EXPECT_GT(ooo.max(), 0.0);
  EXPECT_GE(ooo.min(), 0.0);
}

TEST(ConnectionTest, HomogeneousPathsLittleOoo) {
  WorldConfig tb = two_path_config(5, 5);
  World bed(tb);
  auto conn = bed.make_connection(scheduler_factory("default"));
  conn->send(1'000'000);
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(30));
  // Rates are symmetric but base RTTs differ (16 vs 80 ms), so a small
  // median reordering delay remains; it must stay well under the
  // heterogeneous-bandwidth case (seconds).
  EXPECT_LT(conn->ooo_delay().quantile(0.5), 0.3);
}

TEST(ConnectionTest, RwndAutotuneGrowsWithDelivery) {
  WorldConfig tb = hetero_config();
  tb.conn.rcv_autotune = true;
  tb.conn.rcv_initial_window = 64 * 1024;
  World bed(tb);
  auto conn = bed.make_connection(scheduler_factory("default"));
  EXPECT_EQ(conn->meta_rwnd(), 64 * 1024u);
  BulkSender sender(*conn, 2'000'000);
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(60));
  EXPECT_GT(conn->meta_rwnd(), 1'000'000u);
}

TEST(ConnectionTest, RwndAutotuneDisabledUsesFullBuffer) {
  WorldConfig tb = hetero_config();
  tb.conn.rcv_autotune = false;
  World bed(tb);
  auto conn = bed.make_connection(scheduler_factory("default"));
  EXPECT_EQ(conn->meta_rwnd(), tb.conn.rcvbuf_bytes);
}

TEST(ConnectionTest, MetaInflightBoundedByRwnd) {
  WorldConfig tb = hetero_config();
  tb.conn.rcv_autotune = true;
  tb.conn.rcv_initial_window = 32 * 1024;
  World bed(tb);
  auto conn = bed.make_connection(scheduler_factory("default"));
  conn->send(1'000'000);
  // Immediately after the first scheduling round the meta inflight must not
  // exceed the advertised window.
  EXPECT_LE(conn->meta_inflight(), 32 * 1024u + kDefaultMss);
}

TEST(ConnectionTest, OpportunisticRetransmissionFiresUnderStall) {
  WorldConfig tb = two_path_config();
  // Very slow wifi + fast LTE + small window: the wifi subflow blocks the
  // meta window, forcing reinjection + penalization.
  tb.paths = two_paths(0.3, 10.0);
  tb.conn.rcv_autotune = true;
  tb.conn.rcv_initial_window = 64 * 1024;
  World bed(tb);
  auto conn = bed.make_connection(scheduler_factory("default"));
  conn->send(3'000'000);
  std::uint64_t queued = 3'000'000 - (3'000'000 - conn->sndbuf_free());
  (void)queued;
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(40));
  EXPECT_GT(conn->meta_stats().window_stalls, 0u);
  EXPECT_GT(conn->meta_stats().reinjections, 0u);
  // Penalization halved the blocking subflow at least once.
  std::uint64_t penalizations = 0;
  for (Subflow* sf : conn->subflows()) penalizations += sf->stats().penalizations;
  EXPECT_GT(penalizations, 0u);
}

TEST(ConnectionTest, OpportunisticRetransmissionCanBeDisabled) {
  WorldConfig tb = two_path_config(0.3, 10.0);
  tb.conn.rcv_autotune = true;
  tb.conn.rcv_initial_window = 64 * 1024;
  tb.conn.opportunistic_retransmission = false;
  World bed(tb);
  auto conn = bed.make_connection(scheduler_factory("default"));
  conn->send(3'000'000);
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(20));
  EXPECT_EQ(conn->meta_stats().reinjections, 0u);
}

TEST(ConnectionTest, DuplicatesDroppedAtMetaLevel) {
  WorldConfig tb = two_path_config(0.3, 10.0);
  tb.conn.rcv_autotune = true;
  tb.conn.rcv_initial_window = 64 * 1024;
  World bed(tb);
  auto conn = bed.make_connection(scheduler_factory("default"));
  std::uint64_t delivered = 0;
  conn->on_deliver = [&](std::uint64_t b, TimePoint) { delivered += b; };
  BulkSender sender(*conn, 2'000'000);
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(120));
  // Reinjection duplicates must not inflate delivery.
  EXPECT_EQ(delivered, 2'000'000u);
  EXPECT_GT(conn->meta_stats().reinjections, 0u);
  EXPECT_GT(conn->meta_stats().duplicate_segments, 0u);
}

TEST(ConnectionTest, TwoConnectionsShareThePaths) {
  World bed(hetero_config());
  auto a = bed.make_connection(scheduler_factory("default"));
  auto b = bed.make_connection(scheduler_factory("ecf"));
  std::uint64_t da = 0, db = 0;
  a->on_deliver = [&](std::uint64_t x, TimePoint) { da += x; };
  b->on_deliver = [&](std::uint64_t x, TimePoint) { db += x; };
  BulkSender sa(*a, 300'000);
  BulkSender sb(*b, 300'000);
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(30));
  EXPECT_EQ(da, 300'000u);
  EXPECT_EQ(db, 300'000u);
}

TEST(ConnectionTest, CcSiblingInfoExposesAllSubflows) {
  World bed(hetero_config());
  auto conn = bed.make_connection(scheduler_factory("default"));
  std::vector<CcSiblingInfo> info;
  conn->cc_sibling_info(info);
  ASSERT_EQ(info.size(), 2u);
  EXPECT_EQ(info[0].subflow_id, 0u);
  EXPECT_EQ(info[1].subflow_id, 1u);
  EXPECT_GT(info[0].cwnd, 0.0);
}

TEST(ConnectionTest, FourSubflowsTwoPerPath) {
  WorldConfig tb = hetero_config();
  tb.subflows_per_path = 2;
  World bed(tb);
  auto conn = bed.make_connection(scheduler_factory("ecf"));
  EXPECT_EQ(conn->subflows().size(), 4u);
  std::uint64_t delivered = 0;
  conn->on_deliver = [&](std::uint64_t b, TimePoint) { delivered += b; };
  BulkSender sender(*conn, 500'000);
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(30));
  EXPECT_EQ(delivered, 500'000u);
}

TEST(ConnectionTest, SecondarySubflowJoinsLate) {
  WorldConfig tb = hetero_config();
  tb.conn.delayed_secondary_join = true;
  World bed(tb);
  auto conn = bed.make_connection(scheduler_factory("default"));
  EXPECT_TRUE(conn->subflows()[0]->established());
  EXPECT_FALSE(conn->subflows()[1]->established());
  bed.sim().run_until(TimePoint::origin() + bed.path(1).rtt_base() + Duration::millis(1));
  EXPECT_TRUE(conn->subflows()[1]->established());
}

TEST(ConnectionTest, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    World bed(two_path_config());
    auto conn = bed.make_connection(scheduler_factory("ecf"));
    conn->send(1'000'000);
    bed.sim().run_until(TimePoint::origin() + Duration::seconds(10));
    return std::make_tuple(conn->delivered_bytes(), conn->subflows()[0]->stats().bytes_sent,
                           conn->subflows()[1]->stats().bytes_sent,
                           bed.sim().events_processed());
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- run commits ---------------------------------------------------------------
//
// A scheduler declaring stable_pick() gets whole runs of segments committed
// per pick. The reference is the same min-RTT choice without the
// declaration, which Connection commits one segment per pick: every
// observable (outcome, per-slot SubflowStats, MetaStats, events processed,
// decision log) must be bit-identical between the two.

// Forwards to MinRttScheduler, declaring stable_pick() only when `stable`,
// and counts picks.
class DefaultProbe final : public Scheduler {
 public:
  DefaultProbe(bool stable, std::uint64_t* picks) : stable_(stable), picks_(picks) {}
  Subflow* pick(Connection& conn) override {
    ++*picks_;
    return inner_.pick(conn);
  }
  const char* name() const override { return inner_.name(); }
  bool stable_pick() const override { return stable_; }

 private:
  MinRttScheduler inner_;
  bool stable_;
  std::uint64_t* picks_;
};

SchedulerFactory probe_factory(bool stable, std::uint64_t* picks) {
  return [stable, picks] { return std::make_unique<DefaultProbe>(stable, picks); };
}

// Everything a run commit could perturb.
struct RunTrace {
  std::string outcome;
  std::uint64_t events = 0;
  std::vector<std::uint64_t> stats;     // per connection: every slot, then MetaStats
  std::vector<std::int64_t> decisions;  // picked subflow per logged decision
  std::uint64_t picks = 0;              // not compared: differs by design
};

void add_connection(const Connection& c, RunTrace& t) {
  for (std::size_t s = 0; s < c.slot_count(); ++s) {
    const SubflowStats& st =
        c.subflow_at(s) != nullptr ? c.subflow_at(s)->stats() : c.retired_stats(s);
    t.stats.insert(t.stats.end(),
                   {st.segments_sent, st.bytes_sent, st.reinjected_segments, st.retransmits,
                    st.fast_retransmits, st.rto_events, st.iw_resets, st.idle_resets,
                    st.penalizations, st.rtt_samples});
  }
  const MetaStats& m = c.meta_stats();
  t.stats.insert(t.stats.end(), {m.delivered_bytes, m.duplicate_segments, m.reinjections,
                                 m.remapped_segments, m.window_stalls, m.segments_scheduled});
}

void expect_identical(const RunTrace& run, const RunTrace& ref) {
  EXPECT_EQ(run.outcome, ref.outcome);
  EXPECT_EQ(run.events, ref.events);
  EXPECT_EQ(run.stats, ref.stats);
  EXPECT_EQ(run.decisions, ref.decisions);
  EXPECT_FALSE(ref.stats.empty());
}

ScenarioSpec load_preset(const std::string& name) {
  std::ifstream in(std::string(MPS_SOURCE_DIR) + "/scenarios/" + name + ".json");
  std::ostringstream text;
  text << in.rdbuf();
  return parse_scenario(text.str());
}

RunTrace run_stream(ScenarioSpec spec, bool stable) {
  RunTrace t;
  ScenarioRunOptions opts;
  opts.scheduler_override = probe_factory(stable, &t.picks);
  StreamingRun run(streaming_params_from_spec(spec, opts));
  run.start();
  run.run_to(TimePoint::never());
  ScenarioOutcome out;
  out.kind = WorkloadKind::kStream;
  out.streaming = run.finish();
  EXPECT_TRUE(run.done());
  t.outcome = format_outcome(spec, out);
  t.events = run.sim().events_processed();
  add_connection(run.connection(), t);
  return t;
}

RunTrace run_download_spec(const ScenarioSpec& spec, bool stable) {
  RunTrace t;
  DownloadParams p = download_params_from_spec(spec);
  p.seed += 1;  // as run_scenario does before each repetition
  DownloadRun run(p);
  run.set_scheduler(probe_factory(stable, &t.picks));
  run.start();
  run.run_to(TimePoint::never());
  ScenarioOutcome out;
  out.kind = WorkloadKind::kDownload;
  out.download = run.finish();
  out.download_completions.add(out.download.completion.to_seconds());
  EXPECT_FALSE(out.download.capped);
  t.outcome = format_outcome(spec, out);
  t.events = run.sim().events_processed();
  add_connection(run.connection(), t);
  return t;
}

// One HTTP object of `bytes` over a two-path testbed; `log` attaches a
// decision hook (every pick recorded).
RunTrace run_bed(const WorldConfig& tb, std::uint64_t bytes, bool stable, bool log = false) {
  RunTrace t;
  World bed(tb);
  auto conn = bed.make_connection(probe_factory(stable, &t.picks));
  if (log) {
    conn->scheduler().set_on_decision(
        [&t](TimePoint, const SchedDecision& d) { t.decisions.push_back(d.subflow); });
  }
  HttpExchange http(bed.sim(), *conn, bed.request_delay());
  bool done = false;
  http.get(bytes, [&](const ObjectResult& r) {
    done = true;
    t.outcome = std::to_string((r.completed - r.requested).ns());
  });
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(300));
  EXPECT_TRUE(done);
  t.events = bed.sim().events_processed();
  add_connection(*conn, t);
  return t;
}

TEST(RunCommitTest, ChurnedCrowdCellMatchesStepwise) {
  // 200 competing flows with Poisson churn and a cross flow; the reference
  // swaps every flow's scheduler for the stepwise probe as it starts.
  const ScenarioSpec spec = fairness_cell_spec("default", 200, 2.0, 32 * 1024, 1);
  auto run = [&](bool stepwise) {
    RunTrace t;
    WorldBuilder builder(spec);
    std::unique_ptr<World> world = builder.build();
    TrafficEngine engine(*world, builder.spec());
    if (stepwise) {
      engine.on_flow_start = [&t](Connection& c) {
        c.set_scheduler(probe_factory(false, &t.picks)());
      };
    }
    engine.on_flow_end = [&t](Connection& c) { add_connection(c, t); };
    ScenarioOutcome out;
    out.traffic = engine.run();
    t.outcome = format_outcome(spec, out);
    t.events = world->sim().events_processed();
    return t;
  };
  const RunTrace ref = run(true);
  expect_identical(run(false), ref);
  EXPECT_GT(ref.picks, 0u);
}

TEST(RunCommitTest, Tab02RttCellMatchesStepwise) {
  const ScenarioSpec spec = load_preset("tab02_rtt_cell");
  const RunTrace ref = run_stream(spec, false);
  const RunTrace run = run_stream(spec, true);
  expect_identical(run, ref);
  EXPECT_LT(run.picks, ref.picks);  // runs do form
}

TEST(RunCommitTest, BackupPromotionMatchesStepwise) {
  const ScenarioSpec spec = load_preset("backup_promotion");
  const RunTrace ref = run_download_spec(spec, false);
  const RunTrace run = run_download_spec(spec, true);
  expect_identical(run, ref);
  EXPECT_LT(run.picks, ref.picks);
}

TEST(RunCommitTest, DrainingSubflowMatchesStepwise) {
  // The commuter handover drains the WiFi subflow mid-burst, re-joins it
  // under a new id and finalizes the drained slot. Its trace recorder is
  // dropped: a listening recorder would hold both sides to one-segment runs.
  ScenarioSpec spec = load_preset("handover_commuter");
  spec.scheduler = "default";
  spec.record = RecordSpec{};
  const RunTrace ref = run_stream(spec, false);
  const RunTrace run = run_stream(spec, true);
  expect_identical(run, ref);
  EXPECT_LT(run.picks, ref.picks);
}

TEST(RunCommitTest, StagingLimitOffTheMssGridMatchesStepwise) {
  WorldConfig tb = hetero_config();
  tb.conn.subflow_staging_bytes = 10'000;  // 7 segments and a fraction
  const RunTrace ref = run_bed(tb, 2'000'000, false);
  const RunTrace run = run_bed(tb, 2'000'000, true);
  expect_identical(run, ref);
  EXPECT_LT(run.picks, ref.picks);
}

TEST(RunCommitTest, WindowStallInsideRunAndShortFinalSegmentMatchStepwise) {
  WorldConfig tb = hetero_config();
  tb.conn.rcv_initial_window = 30'001;  // the meta window edge falls mid-run
  tb.conn.rcvbuf_bytes = 50'003;
  const std::uint64_t bytes = 1'000'003;  // short final segment
  const RunTrace ref = run_bed(tb, bytes, false);
  const RunTrace run = run_bed(tb, bytes, true);
  expect_identical(run, ref);
  EXPECT_LT(run.picks, ref.picks);
  // MetaStats::window_stalls is the second-to-last entry.
  EXPECT_GT(ref.stats[ref.stats.size() - 2], 0u);
}

TEST(RunCommitTest, StagedRunSplitsAtCountLimitLikeStepwise) {
  // 64-byte segments and an 8 MB staging limit: the first commit stages
  // more than UINT16_MAX segments on the primary subflow.
  WorldConfig tb = two_path_config(20.0, 20.0);
  tb.conn.mss = 64;
  tb.conn.subflow_staging_bytes = 8 << 20;
  tb.conn.sndbuf_bytes = 8 << 20;
  tb.conn.rcv_autotune = false;
  tb.conn.rcvbuf_bytes = 16 << 20;
  const std::uint64_t bytes = 6'000'000;
  {
    World bed(tb);
    std::uint64_t picks = 0;
    auto conn = bed.make_connection(probe_factory(true, &picks));
    conn->send(bytes);
    EXPECT_GT(conn->subflows()[0]->staged_bytes(), std::uint64_t{UINT16_MAX} * tb.conn.mss);
    EXPECT_EQ(picks, 1u);
  }
  const RunTrace ref = run_bed(tb, bytes, false);
  const RunTrace run = run_bed(tb, bytes, true);
  expect_identical(run, ref);
}

TEST(RunCommitTest, DecisionLogKeepsOneSegmentPerPick) {
  const WorldConfig tb = hetero_config();
  const RunTrace ref = run_bed(tb, 1'000'000, false, /*log=*/true);
  const RunTrace run = run_bed(tb, 1'000'000, true, /*log=*/true);
  expect_identical(run, ref);
  EXPECT_EQ(run.picks, ref.picks);  // runs of length 1 while a log listens
  EXPECT_EQ(run.decisions.size(), run.stats.back());  // one per segment scheduled
}

TEST(RunCommitProperty, DefaultPickStableWhileSubflowAccepts) {
  // Random worlds (2-3 paths, rates, staging limits), run to a random point
  // of a bulk transfer; from there, committing segments to the pick must
  // keep the pick on that subflow exactly as long as it can_accept().
  Rng rng(2024);
  int checked = 0;
  for (int trial = 0; trial < 30; ++trial) {
    WorldConfig wc;
    wc.paths.push_back(wifi_profile(Rate::mbps(rng.uniform(0.5, 20.0))));
    wc.paths.push_back(lte_profile(Rate::mbps(rng.uniform(0.5, 20.0))));
    if (trial % 2 == 1) wc.paths.push_back(wifi_profile(Rate::mbps(rng.uniform(0.5, 20.0))));
    wc.conn.subflow_staging_bytes = static_cast<std::uint64_t>(rng.uniform(1'000.0, 100'000.0));
    wc.seed = static_cast<std::uint64_t>(trial) + 1;
    World world(wc);
    auto conn = world.make_connection(scheduler_factory("default"));
    ASSERT_TRUE(conn->scheduler().stable_pick());
    BulkSender sender(*conn, 50'000'000);
    world.run_for(Duration::from_seconds(rng.uniform(0.05, 3.0)));

    Subflow* sf = conn->scheduler().pick(*conn);
    if (sf == nullptr) continue;
    std::uint64_t seq = conn->next_data_seq() + (std::uint64_t{1} << 40);
    int committed = 0;
    while (sf->can_accept() && committed < 5'000) {
      ASSERT_EQ(conn->scheduler().pick(*conn), sf) << "trial " << trial;
      sf->assign_segment(seq, conn->mss());
      seq += conn->mss();
      ++committed;
    }
    EXPECT_NE(conn->scheduler().pick(*conn), sf) << "trial " << trial;
    checked += committed > 1 ? 1 : 0;
  }
  EXPECT_GT(checked, 10);
}

TEST(RunCommitProperty, OnlyDefaultDeclaresStablePick) {
  for (const std::string& name : scheduler_names()) {
    EXPECT_EQ(scheduler_factory(name)()->stable_pick(), name == "default") << name;
  }
  EXPECT_FALSE(EcfScheduler().stable_pick());
}

}  // namespace
}  // namespace mps
