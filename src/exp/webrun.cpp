#include "exp/webrun.h"

#include <cassert>

#include "app/web.h"
#include "exp/snapshot.h"
#include "exp/testbed.h"
#include "sched/registry.h"

namespace mps {

WebPageRun::WebPageRun(const WebRunParams& params, int rep) : params_(params), rep_(rep) {
  construct();
}

WebPageRun::WebPageRun(const WebPageRun& src, ForkTag)
    : params_(src.params_), rep_(src.rep_) {
  construct();
  snapshot::require_construction_event_free(sim(), "WebPageRun::fork");
  bed_->world().restore_from(src.bed_->world());
  browser_->restore_from(*src.browser_,
                         [this](std::uint32_t id) { bed_->world().set_next_conn_id(id); });
  browser_->on_finished = [this] {
    done_ = true;
    bed_->sim().request_stop();
  };
  started_ = src.started_;
  done_ = src.done_;
  if (started_ && params_.heartbeat.enabled()) {
    bed_->sim().set_heartbeat(params_.heartbeat.interval_s, params_.heartbeat.fn);
  }
  snapshot::require_fully_rebound(sim(), "WebPageRun::fork");
}

WebPageRun::~WebPageRun() = default;

void WebPageRun::construct() {
  cap_ = TimePoint::origin() + Duration::seconds(3600);

  TestbedConfig tb;
  if (params_.use_path_overrides) {
    tb.wifi = params_.wifi_override;
    tb.lte = params_.lte_override;
  } else {
    tb.wifi = wifi_profile(Rate::mbps(params_.wifi_mbps));
    tb.lte = lte_profile(Rate::mbps(params_.lte_mbps));
  }
  tb.seed = params_.seed + static_cast<std::uint64_t>(rep_);
  tb.conn.cc = params_.cc;

  bed_ = std::make_unique<Testbed>(tb);
  WebPageConfig wc;
  // The page content is fixed across runs and schedulers (same seed).
  Rng page_rng(0xC0FFEE);
  auto objects = make_page_objects(page_rng, wc);

  factory_ = scheduler_factory(params_.scheduler);
  browser_ = std::make_unique<WebBrowser>(bed_->sim(), wc, std::move(objects),
                                          [this] { return bed_->make_connection(factory_); });
  browser_->on_finished = [this] {
    done_ = true;
    bed_->sim().request_stop();
  };
}

Simulator& WebPageRun::sim() { return bed_->sim(); }

void WebPageRun::start() {
  assert(!started_);
  started_ = true;
  browser_->start();
  if (params_.heartbeat.enabled()) {
    bed_->sim().set_heartbeat(params_.heartbeat.interval_s, params_.heartbeat.fn);
  }
}

void WebPageRun::run_to(TimePoint t) {
  if (done_) return;
  bed_->sim().run_until(t < cap_ ? t : cap_);
}

std::unique_ptr<WebPageRun> WebPageRun::fork() const {
  return std::unique_ptr<WebPageRun>(new WebPageRun(*this, ForkTag{}));
}

void WebPageRun::finish(WebRunResult& res, double& page_load_sum) {
  if (!done_) bed_->sim().run_until(cap_);
  if (params_.telemetry != nullptr) {
    params_.telemetry->add(bed_->sim(), 0, TimePoint::origin());
  }

  res.object_times.merge(browser_->object_times());
  res.ooo_delay.merge(browser_->ooo_delays());
  res.iw_resets += browser_->iw_resets();
  res.capped = res.capped || !done_;
  page_load_sum += browser_->page_load_time().to_seconds();
}

WebRunResult run_web(const WebRunParams& params) {
  WebRunResult res;
  double page_load_sum = 0.0;

  for (int r = 0; r < params.runs; ++r) {
    WebPageRun run(params, r);
    run.start();
    run.finish(res, page_load_sum);
  }
  res.mean_page_load_s = page_load_sum / params.runs;
  return res;
}

}  // namespace mps
