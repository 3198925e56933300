#include "traffic/engine.h"

#include <cmath>
#include <cstddef>

#include "app/http.h"
#include "obs/prof.h"
#include "obs/recorder.h"
#include "sched/registry.h"
#include "traffic/fairness.h"
#include "util/rng.h"

namespace mps {

struct TrafficEngine::Flow {
  TrafficFlowRecord rec;
  std::unique_ptr<Connection> conn;
  std::unique_ptr<HttpExchange> http;
  // Pending engine events for this flow (0 = none): the scheduled arrival
  // and the deferred post-completion teardown. Tracked so the destructor can
  // cancel them — their closures capture the engine — and forks can rebind.
  EventId arrival_event = 0;
  EventId end_event = 0;
};

TrafficEngine::TrafficEngine(World& world, const ScenarioSpec& spec)
    : world_(world), spec_(spec) {
  attach_instruments();
}

TrafficEngine::TrafficEngine(const TrafficEngine& src, World& world, const ScenarioSpec& spec)
    : tick_s(src.tick_s),
      world_(world),
      spec_(spec),
      base_(src.base_),
      end_(src.end_),
      active_(src.active_),
      churned_(src.churned_),
      tick_event_(src.tick_event_),
      tick_at_(src.tick_at_),
      tick_end_(src.tick_end_) {
  attach_instruments();
  resolve_schedulers();
  const TwinWorld twins = world_.twin_world(src.world_);
  Simulator& sim = world_.sim();
  flows_.reserve(src.flows_.size());
  for (std::size_t idx = 0; idx < src.flows_.size(); ++idx) {
    const Flow& s = src.flows_[idx];
    Flow& f = flows_.emplace_back();
    f.rec = s.rec;
    if (s.conn != nullptr) {
      f.conn = std::make_unique<Connection>(
          *s.conn, twins, f.rec.cross ? cross_scheduler_() : flow_scheduler_());
      if (f.rec.cross) {
        Connection* c = f.conn.get();
        c->on_sendable = [c] { c->send(1u << 30); };
      } else {
        f.http = std::make_unique<HttpExchange>(*s.http, sim, *f.conn);
        if (f.http->outstanding() > 0) install_done(idx);
      }
    }
    f.arrival_event = s.arrival_event;
    if (f.arrival_event != 0) sim.rebind(f.arrival_event, [this, idx] { start_flow(idx); });
    f.end_event = s.end_event;
    if (f.end_event != 0) sim.rebind(f.end_event, [this, idx] { end_flow(idx); });
  }
  if (tick_event_ != 0) {
    sim.rebind(tick_event_, [this, at = tick_at_, end = tick_end_] { fire_tick(at, end); });
  }
}

void TrafficEngine::attach_instruments() {
  if (FlightRecorder* rec = world_.sim().recorder()) {
    MetricsRegistry& m = rec->metrics();
    flows_started_ = m.counter("traffic.flows_started");
    flows_completed_ = m.counter("traffic.flows_completed");
    active_flows_ = m.gauge("traffic.active_flows");
    completion_hist_ = m.histogram("traffic.completion_s");
    goodput_hist_ = m.histogram("traffic.goodput_mbps");
  }
}

TrafficEngine::~TrafficEngine() {
  // Cancel every pending event whose closure captures this engine: an engine
  // destroyed mid-run (harness teardown, a fork discarded early) must not
  // leave arrival / deferred-teardown / tick callbacks live in the queue.
  for (const Flow& f : flows_) {
    if (f.arrival_event != 0) world_.sim().cancel(f.arrival_event);
    if (f.end_event != 0) world_.sim().cancel(f.end_event);
  }
  if (tick_event_ != 0) world_.sim().cancel(tick_event_);
}

namespace {

std::uint64_t draw_size(Rng& rng, const TrafficSpec& t) {
  const double mean = static_cast<double>(t.flow_bytes);
  double v = mean;
  if (t.size_dist == "exponential") {
    v = rng.exponential(mean);
  } else if (t.size_dist == "pareto") {
    // Scale xm so the distribution's mean is flow_bytes: E = xm*a/(a-1).
    const double xm = mean * (t.pareto_alpha - 1.0) / t.pareto_alpha;
    v = rng.pareto(xm, t.pareto_alpha);
  }
  const double r = std::llround(v);
  return r < 1.0 ? 1 : static_cast<std::uint64_t>(r);
}

}  // namespace

void TrafficEngine::start_flow(std::size_t idx) {
  MPS_PROF_MEM_SCOPE(kConn);
  Flow& f = flows_[idx];
  f.arrival_event = 0;  // the arrival event just fired
  if (f.rec.cross) {
    f.conn = world_.make_connection_on({static_cast<std::size_t>(f.rec.cross_path)},
                                       cross_scheduler_);
  } else {
    f.conn = world_.make_connection(flow_scheduler_);
  }
  f.rec.conn_id = f.conn->config().conn_id;
  f.rec.started = true;
  ++active_;
  flows_started_.inc();
  active_flows_.set(world_.sim().now(), static_cast<double>(active_));
  if (on_flow_start) on_flow_start(*f.conn);

  if (f.rec.cross) {
    // Open-ended bulk sender: keep the send buffer full for the whole run.
    Connection* c = f.conn.get();
    c->on_sendable = [c] { c->send(1u << 30); };
    c->send(1u << 30);
  } else {
    f.http = std::make_unique<HttpExchange>(world_.sim(), *f.conn, world_.request_delay());
    f.http->get(f.rec.bytes, [this, idx](const ObjectResult& r) {
      const double fct = (r.completed - base_).to_seconds() - flows_[idx].rec.arrival_s;
      finish_flow(idx, fct);
    });
  }
}

void TrafficEngine::install_done(std::size_t idx) {
  flows_[idx].http->set_outstanding_done(0, [this, idx](const ObjectResult& r) {
    const double fct = (r.completed - base_).to_seconds() - flows_[idx].rec.arrival_s;
    finish_flow(idx, fct);
  });
}

void TrafficEngine::finish_flow(std::size_t idx, double fct_s) {
  Flow& f = flows_[idx];
  f.rec.completed = true;
  f.rec.completion_s = fct_s;
  flows_completed_.inc();
  completion_hist_.record(fct_s);
  // Deferred teardown: destroying the connection from inside its own
  // delivery callback chain would free the executing closure. By the time
  // the post fires, the stack has unwound; packets still in flight for the
  // dead conn_id become mux orphans.
  f.end_event = world_.sim().post([this, idx] { end_flow(idx); });
}

void TrafficEngine::end_flow(std::size_t idx) {
  Flow& f = flows_[idx];
  // Cancel the deferred post when entered from teardown; when entered from
  // the post itself the id is stale (the slot was freed on fire) and cancel
  // is a generation-checked no-op.
  if (f.end_event != 0) {
    world_.sim().cancel(f.end_event);
    f.end_event = 0;
  }
  if (f.conn == nullptr) return;
  f.rec.delivered = f.conn->delivered_bytes();
  for (Subflow* sf : f.conn->subflows()) {
    f.rec.retransmits += sf->stats().retransmits;
    f.rec.rto_events += sf->stats().rto_events;
  }
  const double now_s = (world_.sim().now() - base_).to_seconds();
  const double end_s = f.rec.completed ? f.rec.arrival_s + f.rec.completion_s : now_s;
  const double elapsed = end_s - f.rec.arrival_s;
  f.rec.goodput_mbps =
      elapsed > 0.0 ? static_cast<double>(f.rec.delivered) * 8.0 / 1e6 / elapsed : 0.0;
  goodput_hist_.record(f.rec.goodput_mbps);
  if (FlightRecorder* rec = world_.sim().recorder()) {
    MetricLabels labels;
    labels.conn = f.rec.conn_id;
    rec->metrics().gauge("flow.goodput_mbps", labels).set(world_.sim().now(),
                                                          f.rec.goodput_mbps);
  }
  if (on_flow_end) on_flow_end(*f.conn);
  f.http.reset();
  f.conn.reset();
  --active_;
  active_flows_.set(world_.sim().now(), static_cast<double>(active_));
}

void TrafficEngine::schedule_tick(TimePoint at, TimePoint end) {
  if (at >= end) {
    tick_event_ = 0;
    return;
  }
  tick_at_ = at;
  tick_end_ = end;
  tick_event_ = world_.sim().at(at, [this, at, end] { fire_tick(at, end); });
}

void TrafficEngine::fire_tick(TimePoint at, TimePoint end) {
  if (on_tick) on_tick();
  schedule_tick(at + Duration::from_seconds(tick_s), end);
}

TrafficResult TrafficEngine::run() {
  start();
  world_.sim().run_until(end_);
  finish();
  return collect();
}

void TrafficEngine::resolve_schedulers() {
  flow_scheduler_ = scheduler_factory(spec_.scheduler);
  cross_scheduler_ = scheduler_factory("default");
}

void TrafficEngine::start() {
  const TrafficSpec& t = spec_.traffic;
  resolve_schedulers();
  base_ = world_.sim().now();
  end_ = base_ + Duration::from_seconds(t.duration_s);

  // --- plan: every random draw happens here, before any sim event ---------
  churned_ = 0;
  {
    MPS_PROF_SCOPE(kTrafficPlan);
    MPS_PROF_MEM_SCOPE(kTraffic);
    Rng master = world_.rng().fork();
    Rng arrivals = master.fork();

    struct Plan {
      bool cross = false;
      std::int64_t path = -1;
      double arrival_s = 0.0;
    };
    std::vector<Plan> plan;
    for (std::int64_t i = 0; i < t.flows; ++i) plan.push_back(Plan{false, -1, 0.0});

    if (t.arrival_rate_per_s > 0.0) {
      double at = 0.0;
      while (static_cast<std::int64_t>(churned_) < t.max_arrivals) {
        at += arrivals.exponential(1.0 / t.arrival_rate_per_s);
        if (at >= t.duration_s) break;
        plan.push_back(Plan{false, -1, at});
        ++churned_;
      }
    }
    for (const CrossTrafficSpec& x : t.cross) {
      for (std::int64_t i = 0; i < x.flows; ++i) {
        plan.push_back(Plan{true, x.path, x.start_s});
      }
    }

    flows_.clear();
    flows_.reserve(plan.size());
    for (const Plan& p : plan) {
      Flow& f = flows_.emplace_back();
      // Fork unconditionally (cross flows too) so the draw sequence is
      // independent of each flow's kind; the fork is consumed here rather
      // than stored per flow.
      Rng flow_rng = master.fork();
      f.rec.cross = p.cross;
      f.rec.cross_path = p.path;
      f.rec.arrival_s = p.arrival_s;
      if (!p.cross) f.rec.bytes = draw_size(flow_rng, t);
    }
  }

  // --- schedule arrivals and ticks ------------------------------------------
  for (std::size_t idx = 0; idx < flows_.size(); ++idx) {
    const double arr = flows_[idx].rec.arrival_s;
    if (arr >= t.duration_s) continue;  // e.g. a cross group starting too late
    flows_[idx].arrival_event =
        world_.sim().at(base_ + Duration::from_seconds(arr), [this, idx] { start_flow(idx); });
  }
  if (on_tick && tick_s > 0.0) schedule_tick(base_ + Duration::from_seconds(tick_s), end_);
}

void TrafficEngine::finish() {
  for (std::size_t idx = 0; idx < flows_.size(); ++idx) {
    if (flows_[idx].conn != nullptr) end_flow(idx);
  }
}

TrafficResult TrafficEngine::collect() const {
  const TrafficSpec& t = spec_.traffic;
  TrafficResult res;
  res.duration_s = t.duration_s;
  res.churned = churned_;
  std::vector<double> mptcp_goodputs;
  res.flows.reserve(flows_.size());
  mptcp_goodputs.reserve(flows_.size());
  std::uint64_t delivered_mptcp = 0;
  std::uint64_t delivered_cross = 0;
  for (const Flow& f : flows_) {
    res.flows.push_back(f.rec);
    if (!f.rec.started) continue;
    ++res.started;
    if (f.rec.cross) {
      delivered_cross += f.rec.delivered;
    } else {
      delivered_mptcp += f.rec.delivered;
      mptcp_goodputs.push_back(f.rec.goodput_mbps);
      if (f.rec.completed) {
        ++res.completed;
        res.completion_s.add(f.rec.completion_s);
      } else {
        ++res.incomplete;
      }
    }
  }
  for (const PathSpec& p : spec_.paths) res.capacity_mbps += p.rate_mbps;
  res.mptcp_goodput_mbps = static_cast<double>(delivered_mptcp) * 8.0 / 1e6 / t.duration_s;
  res.cross_goodput_mbps = static_cast<double>(delivered_cross) * 8.0 / 1e6 / t.duration_s;
  res.aggregate_goodput_mbps = res.mptcp_goodput_mbps + res.cross_goodput_mbps;
  res.utilization = link_utilization(res.aggregate_goodput_mbps, res.capacity_mbps);
  res.jain = jain_index(mptcp_goodputs);
  res.orphans = world_.down_mux().orphan_count() + world_.up_mux().orphan_count();
  return res;
}

ScenarioSpec fairness_cell_spec(const std::string& scheduler, int flows, double duration_s,
                                std::int64_t flow_bytes, std::uint64_t seed) {
  ScenarioSpec s;
  s.name = "fairness-cell";
  s.paths = {wifi_path(8.0), lte_path(10.0)};
  s.scheduler = scheduler;
  s.traffic.enabled = true;
  s.traffic.flows = flows;
  s.traffic.arrival_rate_per_s = static_cast<double>(flows) / 4.0;
  s.traffic.max_arrivals = 256;
  s.traffic.flow_bytes = flow_bytes;
  s.traffic.size_dist = "exponential";
  s.traffic.duration_s = duration_s;
  s.traffic.cross = {CrossTrafficSpec{1, 1, 0.0}};
  s.seed = seed;
  return s;
}

}  // namespace mps
