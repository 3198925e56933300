#include "app/web.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mps {

std::vector<std::uint64_t> make_page_objects(Rng& rng, const WebPageConfig& config) {
  std::vector<std::uint64_t> sizes;
  sizes.reserve(static_cast<std::size_t>(config.object_count));
  double sum = 0.0;
  for (int i = 0; i < config.object_count; ++i) {
    const double raw = rng.lognormal(config.lognormal_mu, config.lognormal_sigma);
    const double clamped = std::clamp(raw, static_cast<double>(config.min_object_bytes),
                                      static_cast<double>(config.max_object_bytes));
    sizes.push_back(static_cast<std::uint64_t>(clamped));
    sum += clamped;
  }
  // Rescale to the calibrated page weight, respecting the floor.
  const double scale = static_cast<double>(config.total_bytes) / sum;
  for (auto& s : sizes) {
    s = std::max<std::uint64_t>(config.min_object_bytes,
                                static_cast<std::uint64_t>(static_cast<double>(s) * scale));
  }
  return sizes;
}

WebBrowser::WebBrowser(Simulator& sim, WebPageConfig config,
                       std::vector<std::uint64_t> objects, ConnectionFactory factory)
    : sim_(sim), config_(config), objects_(std::move(objects)), factory_(std::move(factory)) {
  slots_.resize(static_cast<std::size_t>(config_.parallel_connections));
}

void WebBrowser::start() {
  page_start_ = sim_.now();
  for (std::size_t i = 0; i < slots_.size(); ++i) assign_next(i);
}

void WebBrowser::ensure_connection(Slot& slot) {
  const bool expired = !slot.last_activity.is_never() &&
                       sim_.now() - slot.last_activity > config_.keepalive;
  if (slot.conn != nullptr && !expired) return;
  retire_connection(slot);
  slot.conn = factory_();
  const Duration request_delay = slot.conn->subflows()[0]->path().rtt_base() / 2;
  slot.http = std::make_unique<HttpExchange>(sim_, *slot.conn, request_delay);
}

void WebBrowser::retire_connection(Slot& slot) {
  if (slot.conn == nullptr) return;
  ooo_delays_.merge(slot.conn->ooo_delay());
  for (const Subflow* sf : slot.conn->subflows()) {
    retired_iw_resets_ += sf->stats().iw_resets;
  }
  slot.http.reset();
  slot.conn.reset();
}

void WebBrowser::assign_next(std::size_t slot_index) {
  Slot& slot = slots_[slot_index];
  if (next_object_ >= objects_.size()) {
    slot.busy = false;
    if (outstanding_ == 0 && !finished_) {
      finished_ = true;
      page_end_ = sim_.now();
      // Fold in metrics from connections still open.
      for (auto& s : slots_) retire_connection(s);
      if (on_finished) on_finished();
    }
    return;
  }

  ensure_connection(slot);
  const std::uint64_t bytes = objects_[next_object_++];
  slot.busy = true;
  ++outstanding_;
  slot.http->get(bytes, [this, slot_index](const ObjectResult& r) {
    Slot& s = slots_[slot_index];
    s.last_activity = sim_.now();
    object_times_.add((r.completed - r.requested).to_seconds());
    --outstanding_;
    assign_next(slot_index);
  });
}

void WebBrowser::restore_from(const WebBrowser& src, const TwinFactory& twin) {
  next_object_ = src.next_object_;
  outstanding_ = src.outstanding_;
  finished_ = src.finished_;
  page_start_ = src.page_start_;
  page_end_ = src.page_end_;
  object_times_ = src.object_times_;
  ooo_delays_ = src.ooo_delays_;
  retired_iw_resets_ = src.retired_iw_resets_;
  assert(slots_.size() == src.slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& dst = slots_[i];
    const Slot& s = src.slots_[i];
    dst.last_activity = s.last_activity;
    dst.busy = s.busy;
    if (s.conn == nullptr) continue;
    dst.conn = twin(*s.conn);
    dst.http = std::make_unique<HttpExchange>(*s.http, sim_, *dst.conn);
    for (std::size_t j = 0; j < dst.http->outstanding(); ++j) {
      dst.http->set_outstanding_done(j, [this, i](const ObjectResult& r) {
        Slot& sl = slots_[i];
        sl.last_activity = sim_.now();
        object_times_.add((r.completed - r.requested).to_seconds());
        --outstanding_;
        assign_next(i);
      });
    }
  }
}

std::uint64_t WebBrowser::iw_resets() const {
  std::uint64_t total = retired_iw_resets_;
  for (const auto& slot : slots_) {
    if (slot.conn == nullptr) continue;
    for (const Subflow* sf : slot.conn->subflows()) total += sf->stats().iw_resets;
  }
  return total;
}

}  // namespace mps
