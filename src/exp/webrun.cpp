#include "exp/webrun.h"

#include "app/web.h"
#include "scenario/world.h"

namespace mps {

WebPageRun::WebPageRun(const WebRunParams& params, int rep)
    : RunShell(params.recorder, params.telemetry, params.heartbeat), params_(params) {
  params_.seed += static_cast<std::uint64_t>(rep);
  construct(nullptr);
}

WebPageRun::WebPageRun(const WebPageRun& src, ForkTag)
    : RunShell(src, ForkTag{}), params_(src.params_) {
  construct(&src);
}

WebPageRun::~WebPageRun() { discard_events(); }

void WebPageRun::construct(const WebPageRun* src) {
  static constexpr const char* kWho = "WebPageRun::fork";
  end_ = TimePoint::origin() + Duration::seconds(3600);
  build_world(params_, src);
  WebBrowser::ConnectionFactory factory = [this] { return make_connection(params_); };
  if (src == nullptr) {
    WebPageConfig wc;
    // The page content is fixed across runs and schedulers (same seed).
    Rng page_rng(0xC0FFEE);
    auto objects = make_page_objects(page_rng, wc);
    browser_ = std::make_unique<WebBrowser>(sim(), wc, std::move(objects), std::move(factory));
  } else {
    browser_ = std::make_unique<WebBrowser>(
        *src->browser_, sim(), std::move(factory),
        [this, src](const Connection& c) { return twin_connection(c, *src, params_.scheduler); });
  }
  browser_->on_finished = [this] {
    done_ = true;
    sim().request_stop();
  };
  build_traces(params_, src);
  if (src != nullptr) adopt(*src, kWho);
}

void WebPageRun::begin() { browser_->start(); }

std::unique_ptr<WebPageRun> WebPageRun::fork() const {
  return std::unique_ptr<WebPageRun>(new WebPageRun(*this, ForkTag{}));
}

void WebPageRun::finish(WebRunResult& res, double& page_load_sum) {
  settle();
  res.object_times.merge(browser_->object_times());
  res.ooo_delay.merge(browser_->ooo_delays());
  res.iw_resets += browser_->iw_resets();
  res.capped = res.capped || !done_;
  page_load_sum += browser_->page_load_time().to_seconds();
}

}  // namespace mps
