#include "app/http.h"

#include <cassert>

namespace mps {

HttpExchange::HttpExchange(Simulator& sim, Connection& conn, Duration request_delay)
    : sim_(sim), conn_(conn), request_delay_(request_delay) {
  hook_connection();
}

HttpExchange::HttpExchange(const HttpExchange& src, Simulator& sim, Connection& conn)
    : sim_(sim),
      conn_(conn),
      request_delay_(src.request_delay_),
      head_(src.head_),
      delivered_total_(src.delivered_total_),
      request_ids_(src.request_ids_) {
  objects_.reserve(src.objects_.size());
  for (const PendingObject& from : src.objects_) {
    objects_.push_back(PendingObject{from.bytes, from.queued_at_server, from.delivered,
                                     from.serving, from.result, nullptr});
  }
  for (std::size_t i = 0; i < request_ids_.size(); ++i) {
    sim_.rebind(request_ids_.at(i), [this] { on_request_arrival(); });
  }
  hook_connection();
}

void HttpExchange::hook_connection() {
  conn_.on_sendable = [this] { server_pump(); };
  conn_.on_deliver = [this](std::uint64_t bytes, TimePoint when) { on_delivered(bytes, when); };
  conn_.on_wire_arrival_hook = [this](std::uint32_t subflow_id, std::uint64_t, std::uint32_t,
                                      TimePoint when) { on_wire(subflow_id, when); };
}

HttpExchange::~HttpExchange() {
  if (alive_ != nullptr) *alive_ = false;
  conn_.on_sendable = nullptr;
  conn_.on_deliver.reset();
  conn_.on_wire_arrival_hook.reset();
  // Cancel in-flight GETs: their closures capture `this`, and an exchange
  // torn down mid-request (connection churn) must not leave them live.
  while (!request_ids_.empty()) {
    sim_.cancel(request_ids_.front());
    request_ids_.pop_front();
  }
}

void HttpExchange::get(std::uint64_t bytes, DoneFn done) {
  assert(bytes > 0);
  PendingObject obj;
  obj.bytes = bytes;
  obj.result.bytes = bytes;
  obj.result.requested = sim_.now();
  obj.result.last_arrival_wifi = TimePoint::never();
  obj.result.last_arrival_lte = TimePoint::never();
  obj.done = std::move(done);
  objects_.push_back(std::move(obj));

  // The GET reaches the server after the one-way control latency; `serving`
  // marks arrival. Objects are identified positionally: requests arrive in
  // issue order because the delay is constant.
  request_ids_.push_back(sim_.after(request_delay_, [this] { on_request_arrival(); }));
}

void HttpExchange::on_request_arrival() {
  if (!request_ids_.empty()) request_ids_.pop_front();
  for (std::size_t i = head_; i < objects_.size(); ++i) {
    if (!objects_[i].serving) {
      objects_[i].serving = true;
      break;
    }
  }
  server_pump();
}

void HttpExchange::server_pump() {
  for (std::size_t i = head_; i < objects_.size(); ++i) {
    PendingObject& obj = objects_[i];
    if (!obj.serving) break;  // FIFO responses; GET not at server yet
    if (obj.queued_at_server < obj.bytes) {
      const std::uint64_t accepted = conn_.send(obj.bytes - obj.queued_at_server);
      if (obj.queued_at_server == 0 && accepted > 0) obj.result.started = sim_.now();
      obj.queued_at_server += accepted;
      if (obj.queued_at_server < obj.bytes) break;  // send buffer full
    }
  }
}

void HttpExchange::on_delivered(std::uint64_t bytes, TimePoint when) {
  // Entered only from the connection's deferred delivery post, never from
  // inside itself, so one flag slot suffices.
  assert(alive_ == nullptr);
  bool alive = true;
  alive_ = &alive;
  delivered_total_ += bytes;
  while (bytes > 0 && head_ < objects_.size()) {
    PendingObject& obj = objects_[head_];
    const std::uint64_t want = obj.bytes - obj.delivered;
    const std::uint64_t take = std::min(bytes, want);
    obj.delivered += take;
    bytes -= take;
    if (obj.delivered < obj.bytes) break;
    obj.result.completed = when;
    // Pop before invoking the callback: it may issue the next GET.
    DoneFn done = std::move(obj.done);
    const ObjectResult result = obj.result;
    pop_front_object();
    if (done) done(result);
    // The callback may have destroyed this exchange (e.g. WebBrowser
    // retiring an expired keepalive connection); nothing left to do then.
    if (!alive) return;
  }
  alive_ = nullptr;
  // Freed receive-side accounting may allow more server writes.
  server_pump();
}

void HttpExchange::pop_front_object() {
  objects_[head_] = PendingObject{};  // release the done callback eagerly
  ++head_;
  if (head_ == objects_.size()) {
    objects_.clear();
    head_ = 0;
  } else if (head_ >= 32 && head_ * 2 >= objects_.size()) {
    objects_.erase(objects_.begin(),
                   objects_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void HttpExchange::on_wire(std::uint32_t subflow_id, TimePoint when) {
  if (head_ == objects_.size()) return;
  PendingObject& obj = objects_[head_];
  const auto& subflows = conn_.subflows();
  if (subflow_id >= subflows.size()) return;
  const std::string& path_name = subflows[subflow_id]->path().name();
  if (path_name.rfind("wifi", 0) == 0) {
    obj.result.last_arrival_wifi = when;
  } else {
    obj.result.last_arrival_lte = when;
  }
}

}  // namespace mps
