#include "exp/download.h"

#include "app/http.h"
#include "scenario/world.h"

namespace mps {

DownloadRun::DownloadRun(const DownloadParams& params)
    : RunShell(params.recorder, params.telemetry, params.heartbeat), params_(params) {
  construct(nullptr);
}

DownloadRun::DownloadRun(const DownloadRun& src, ForkTag)
    : RunShell(src, ForkTag{}), params_(src.params_), res_(src.res_) {
  construct(&src);
}

DownloadRun::~DownloadRun() { discard_events(); }

void DownloadRun::construct(const DownloadRun* src) {
  static constexpr const char* kWho = "DownloadRun::fork";
  end_ = TimePoint::origin() + Duration::seconds(600);
  build_world(params_);
  if (src != nullptr) adopt_world(*src, kWho);
  build_connection(params_, src);
  build_traces(params_, src);
  if (src == nullptr) return;
  if (http_->outstanding() > 0) install_done();
  adopt(*src, kWho);
}

void DownloadRun::install_done() {
  http_->set_outstanding_done(0, [this](const ObjectResult& r) {
    res_.completion = r.completed - r.requested;
    done_ = true;
    sim().request_stop();
  });
}

void DownloadRun::begin() {
  http_->get(params_.bytes, nullptr);
  install_done();
}

std::unique_ptr<DownloadRun> DownloadRun::fork() const {
  return std::unique_ptr<DownloadRun>(new DownloadRun(*this, ForkTag{}));
}

DownloadResult DownloadRun::finish() {
  settle();

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

}  // namespace mps
