#include "exp/run.h"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "app/http.h"
#include "obs/recorder.h"
#include "scenario/world.h"

namespace mps {

namespace {

// A twin that scheduled or cancelled an event would shift the fire order:
// after fork construction the pending set is exactly the source's.
void require_source_pending_count(Simulator& sim, std::size_t expected, const char* who) {
  if (sim.pending_events() != expected) {
    throw std::logic_error(std::string(who) + ": fork construction left " +
                           std::to_string(sim.pending_events()) + " pending event(s), expected " +
                           std::to_string(expected) + "; twin construction must be event-free");
  }
}

// A live event with no callback bound: a twin forgot to adopt it.
void require_fully_rebound(Simulator& sim, const char* who) {
  std::vector<std::pair<EventId, TimePoint>> unbound;
  sim.collect_unbound_events(unbound);
  if (unbound.empty()) return;
  std::string msg = std::string(who) + ": " + std::to_string(unbound.size()) +
                    " pending event(s) not rebound after fork:";
  const std::size_t show = unbound.size() < 8 ? unbound.size() : 8;
  for (std::size_t i = 0; i < show; ++i) {
    msg += " [id " + std::to_string(unbound[i].first) + " @ " +
           std::to_string((unbound[i].second - TimePoint::origin()).to_seconds()) + "s]";
  }
  throw std::logic_error(msg);
}

}  // namespace

RunShell::RunShell(FlightRecorder* recorder, RunTelemetry* telemetry, HeartbeatConfig heartbeat)
    : rec_(recorder), telemetry_(telemetry), heartbeat_(std::move(heartbeat)) {}

RunShell::RunShell(const RunShell& src, ForkTag)
    : telemetry_(src.telemetry_), heartbeat_(src.heartbeat_) {
  if (src.rec_ != nullptr) {
    own_recorder();
    owned_rec_->clone_from(*src.rec_);
  }
}

RunShell::~RunShell() = default;

void RunShell::own_recorder() {
  owned_rec_ = std::make_unique<FlightRecorder>();
  rec_ = owned_rec_.get();
}

Simulator& RunShell::sim() { return world_->sim(); }

void RunShell::build_world(const RunParams& p, const RunShell* src) {
  if (src != nullptr) {
    world_ = std::make_unique<World>(*src->world_, rec_);
    fast_path_ = src->fast_path_;
    return;
  }
  if (p.paths.empty()) throw std::invalid_argument("run: RunParams::paths is empty");
  if (p.traces.size() > p.paths.size()) {
    throw std::invalid_argument("run: RunParams::traces has more entries than paths");
  }
  WorldConfig wc;
  wc.paths = p.paths;
  wc.subflows_per_path = p.subflows_per_path;
  wc.conn = p.conn;
  wc.seed = p.seed;
  wc.recorder = rec_;
  world_ = std::make_unique<World>(std::move(wc));
  fast_path_ = 0;
  for (std::size_t i = 1; i < p.paths.size(); ++i) {
    if (p.paths[i].down_rate > p.paths[fast_path_].down_rate) fast_path_ = i;
  }
}

std::unique_ptr<Connection> RunShell::make_connection(const RunParams& p) {
  return p.initial_paths.empty() ? world_->make_connection(p.scheduler)
                                 : world_->make_connection_on(p.initial_paths, p.scheduler);
}

std::unique_ptr<Connection> RunShell::twin_connection(const Connection& src,
                                                      const RunShell& src_run,
                                                      const SchedulerFactory& scheduler) {
  return std::make_unique<Connection>(src, world_->twin_world(*src_run.world_), scheduler());
}

void RunShell::build_connection(const RunParams& p, const RunShell* src) {
  if (src == nullptr) {
    scheduler_ = p.scheduler;
    conn_ = make_connection(p);
  } else {
    scheduler_ = src->scheduler_;
    conn_ = twin_connection(*src->conn_, *src, scheduler_);
  }
  if (p.path_manager) {
    std::vector<Path*> paths;
    for (std::size_t i = 0; i < world_->path_count(); ++i) paths.push_back(&world_->path(i));
    pm_ = src == nullptr
              ? std::make_unique<PathManager>(*conn_, std::move(paths), *p.path_manager)
              : std::make_unique<PathManager>(*src->pm_, *conn_, std::move(paths));
  }
  http_ = src == nullptr
              ? std::make_unique<HttpExchange>(world_->sim(), *conn_, world_->request_delay())
              : std::make_unique<HttpExchange>(*src->http_, world_->sim(), *conn_);
}

void RunShell::build_traces(const RunParams& p, const RunShell* src) {
  for (std::size_t i = 0; i < p.traces.size(); ++i) {
    if (p.traces[i].empty()) continue;
    schedules_.push_back(
        src == nullptr
            ? std::make_unique<BandwidthSchedule>(world_->sim(), world_->path(i), p.traces[i])
            : std::make_unique<BandwidthSchedule>(*src->schedules_[schedules_.size()],
                                                  world_->sim(), world_->path(i)));
  }
}

void RunShell::adopt(const RunShell& src, const char* who) {
  end_ = src.end_;
  base_ = src.base_;
  events_before_ = src.events_before_;
  started_ = src.started_;
  done_ = src.done_;
  if (started_ && heartbeat_.enabled()) sim().set_heartbeat(heartbeat_.interval_s, heartbeat_.fn);
  require_source_pending_count(sim(), src.world_->sim().pending_events(), who);
  require_fully_rebound(sim(), who);
}

void RunShell::discard_events() {
  if (world_ != nullptr) sim().discard_pending();
}

void RunShell::start() {
  assert(!started_);
  started_ = true;
  base_ = sim().now();
  events_before_ = sim().events_processed();
  begin();
  if (pm_ != nullptr) pm_->start();
  if (heartbeat_.enabled()) sim().set_heartbeat(heartbeat_.interval_s, heartbeat_.fn);
}

void RunShell::run_to(TimePoint t) {
  if (done_) return;
  sim().run_until(t < end_ ? t : end_);
}

void RunShell::set_scheduler(const SchedulerFactory& factory) {
  if (conn_ == nullptr) {
    throw std::logic_error("set_scheduler: this run has no single connection to switch");
  }
  conn_->set_scheduler(factory());
  scheduler_ = factory;
}

void RunShell::settle() {
  if (!done_) sim().run_until(end_);
  if (sim().heartbeat_attached()) sim().set_heartbeat(0.0, nullptr);
  if (telemetry_ != nullptr) telemetry_->add(sim(), events_before_, base_);
}

}  // namespace mps
