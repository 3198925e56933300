#include "exp/download.h"

#include <cassert>

#include "app/http.h"
#include "exp/snapshot.h"
#include "scenario/world.h"
#include "sched/registry.h"

namespace mps {

DownloadRun::DownloadRun(const DownloadParams& params) : params_(params) { construct(); }

DownloadRun::DownloadRun(const DownloadRun& src, ForkTag) : params_(src.params_) {
  construct();
  snapshot::require_construction_event_free(sim(), "DownloadRun::fork");
  world_->restore_from(*src.world_);
  if (pm_ != nullptr) pm_->restore_topology(*src.pm_);
  conn_->restore_from(*src.conn_);
  if (pm_ != nullptr) pm_->restore_from(*src.pm_);
  http_->restore_from(*src.http_);
  if (http_->outstanding() > 0) install_done();
  res_ = src.res_;
  started_ = src.started_;
  done_ = src.done_;
  if (started_ && params_.heartbeat.enabled()) {
    world_->sim().set_heartbeat(params_.heartbeat.interval_s, params_.heartbeat.fn);
  }
  snapshot::require_fully_rebound(sim(), "DownloadRun::fork");
}

DownloadRun::~DownloadRun() = default;

void DownloadRun::construct() {
  cap_ = TimePoint::origin() + Duration::seconds(600);

  // World construction is bit-identical to the historical Testbed veneer for
  // the default wifi/lte pair (scenario/world.h's compatibility contract).
  WorldConfig wc;
  if (params_.paths.empty()) {
    wc.paths.push_back(wifi_profile(Rate::mbps(params_.wifi_mbps)));
    wc.paths.push_back(lte_profile(Rate::mbps(params_.lte_mbps)));
  } else {
    wc.paths = params_.paths;
  }
  wc.seed = params_.seed;
  wc.conn.cc = params_.cc;

  fast_path_ = 0;
  for (std::size_t i = 1; i < wc.paths.size(); ++i) {
    if (wc.paths[i].down_rate > wc.paths[fast_path_].down_rate) fast_path_ = i;
  }

  world_ = std::make_unique<World>(wc);
  conn_ = params_.initial_paths.empty()
              ? world_->make_connection(scheduler_factory(params_.scheduler))
              : world_->make_connection_on(params_.initial_paths,
                                           scheduler_factory(params_.scheduler));
  if (params_.use_path_manager) {
    std::vector<Path*> paths;
    for (std::size_t i = 0; i < world_->path_count(); ++i) paths.push_back(&world_->path(i));
    pm_ = std::make_unique<PathManager>(*conn_, std::move(paths), params_.path_manager);
  }
  http_ = std::make_unique<HttpExchange>(world_->sim(), *conn_, world_->request_delay());
}

void DownloadRun::install_done() {
  http_->set_outstanding_done(0, [this](const ObjectResult& r) {
    res_.completion = r.completed - r.requested;
    done_ = true;
    world_->sim().request_stop();
  });
}

Simulator& DownloadRun::sim() { return world_->sim(); }

void DownloadRun::start() {
  assert(!started_);
  started_ = true;
  http_->get(params_.bytes, nullptr);
  install_done();
  if (pm_ != nullptr) pm_->start();
  if (params_.heartbeat.enabled()) {
    world_->sim().set_heartbeat(params_.heartbeat.interval_s, params_.heartbeat.fn);
  }
}

void DownloadRun::run_to(TimePoint t) {
  if (done_) return;
  world_->sim().run_until(t < cap_ ? t : cap_);
}

std::unique_ptr<DownloadRun> DownloadRun::fork() const {
  return std::unique_ptr<DownloadRun>(new DownloadRun(*this, ForkTag{}));
}

void DownloadRun::set_scheduler(const SchedulerFactory& factory) {
  conn_->set_scheduler(factory());
}

DownloadResult DownloadRun::finish() {
  if (!done_) world_->sim().run_until(cap_);
  if (params_.telemetry != nullptr) {
    params_.telemetry->add(world_->sim(), 0, TimePoint::origin());
  }

  // Per-path byte totals via the connection's slot accounting, which
  // survives mid-connection subflow teardown (retired slots keep their
  // stats). Identical to summing the live subflows for static topologies.
  res_.path_bytes.assign(world_->path_count(), 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < world_->path_count(); ++i) {
    res_.path_bytes[i] = conn_->bytes_sent_on(world_->path(i));
    total += res_.path_bytes[i];
  }
  res_.fraction_fast =
      total > 0 ? static_cast<double>(res_.path_bytes[fast_path_]) / total : 0.0;
  res_.ooo_delay = conn_->ooo_delay();
  res_.remapped_segments = conn_->meta_stats().remapped_segments;
  res_.capped = !done_;
  return res_;
}

DownloadResult run_download(const DownloadParams& params) {
  DownloadRun run(params);
  run.start();
  return run.finish();
}

Samples run_download_samples(DownloadParams params, int runs) {
  Samples out;
  for (int r = 0; r < runs; ++r) {
    params.seed += 1;
    out.add(run_download(params).completion.to_seconds());
  }
  return out;
}

}  // namespace mps
