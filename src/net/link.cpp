#include "net/link.h"

#include <cassert>
#include <utility>

#include "obs/prof.h"
#include "obs/recorder.h"
#include "util/log.h"

namespace mps {

Link::Link(Simulator& sim, LinkConfig config, std::string name)
    : sim_(sim),
      config_(config),
      name_(std::move(name)),
      fault_(make_fault_model(config.fault)),
      tx_timer_(sim) {
  if (FlightRecorder* rec = sim_.recorder(); rec != nullptr) {
    MetricsRegistry& m = rec->metrics();
    MetricLabels labels;
    labels.entity = name_;
    obs_.drops_queue = m.counter("link.drops_queue", labels);
    obs_.drops_random = m.counter("link.drops_random", labels);
    obs_.drops_fault = m.counter("link.drops_fault", labels);
    obs_.busy_ns = m.counter("link.busy_ns", labels);
    obs_.queue_depth = m.gauge("link.queue_depth", labels);
  }
}

void Link::send(const Packet& pkt) {
  ++stats_.packets_in;
  if (config_.loss_rate > 0.0 && rng_.bernoulli(config_.loss_rate)) {
    ++stats_.drops_random;
    obs_.drops_random.inc();
    MPS_TRACE_EVENT(sim_, EventType::kLinkDrop, pkt.conn_id, pkt.subflow_id,
                    {"link", name_.c_str()}, {"reason", "random"});
    return;
  }
  bool fault_drop = false;
  if (fault_ != nullptr) {
    MPS_PROF_SCOPE(kFaultDraw);
    fault_drop = fault_->should_drop(sim_.now(), rng_);
  }
  if (fault_drop) {
    ++stats_.drops_fault;
    obs_.drops_fault.inc();
    MPS_TRACE_EVENT(sim_, EventType::kLinkDrop, pkt.conn_id, pkt.subflow_id,
                    {"link", name_.c_str()}, {"reason", "fault"});
    return;
  }
  if (busy() && queue_.size() >= config_.queue_packets) {
    ++stats_.drops_queue;
    obs_.drops_queue.inc();
    MPS_TRACE_EVENT(sim_, EventType::kLinkDrop, pkt.conn_id, pkt.subflow_id,
                    {"link", name_.c_str()}, {"reason", "queue"},
                    {"depth", static_cast<std::uint64_t>(queue_.size())});
    MPS_DEBUG("%s: drop (queue full, depth=%zu)", name_.c_str(), queue_.size());
    return;
  }
  Packet* p = pool_.acquire();
  *p = pkt;
  p->prop_event = 0;  // set again only if it ever overtakes the FIFO
  if (busy()) {
    queue_.push_back(p);
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
    obs_.queue_depth.set(sim_.now(), static_cast<double>(queue_.size()));
    return;
  }
  in_service_ = p;
  start_transmission();
}

void Link::start_transmission() {
  const Duration tx = config_.rate.transmit_time(in_service_->wire_size());
  if (tx.is_infinite()) {
    // A zero-rate link parks the packet until the rate is raised again; we
    // model this by polling on a coarse timer so rate changes do not need to
    // know about parked packets.
    tx_parked_ = true;
    tx_timer_.schedule_after(Duration::millis(100), [this] { start_transmission(); });
    return;
  }
  tx_parked_ = false;
  obs_.busy_ns.inc(static_cast<std::uint64_t>(tx.ns()));
  tx_timer_.schedule_after(tx, [this] { finish_transmission(); });
}

void Link::finish_transmission() {
  assert(busy());
  Packet* p = in_service_;
  ++stats_.packets_delivered;
  stats_.bytes_delivered += p->wire_size();

  if (!queue_.empty()) {
    in_service_ = queue_.front();
    queue_.pop_front();
    obs_.queue_depth.set(sim_.now(), static_cast<double>(queue_.size()));
    start_transmission();
  } else {
    in_service_ = nullptr;
  }

  // Propagation: the arrival at the far end. A fault model may add
  // per-packet extra delay here, which deliberately breaks FIFO arrival
  // (reordering).
  Duration prop = config_.prop_delay;
  if (fault_ != nullptr) {
    MPS_PROF_SCOPE(kFaultDraw);
    const Duration extra = fault_->extra_delay(sim_.now(), rng_);
    if (extra > Duration::zero()) {
      ++stats_.reordered;
      prop += extra;
    }
  }
  // The stamp is taken here, where a per-packet schedule would take it.
  const TimePoint when = sim_.now() + prop;
  const std::uint64_t seq = sim_.reserve_seq();
  if (!prop_.empty() && when < prop_.back().when) {
    p->prop_event = sim_.at_reserved(when, seq, [this, p] { deliver(p); });
    return;
  }
  prop_.push_back({p, when, seq});
  if (prop_.size() == 1) head_event_ = sim_.at_reserved(when, seq, [this] { deliver_head(); });
}

void Link::deliver_head() {
  Packet* p = prop_.front().pkt;
  prop_.pop_front();
  if (!prop_.empty()) {
    const InFlight& next = prop_.front();
    head_event_ = sim_.at_reserved(next.when, next.seq, [this] { deliver_head(); });
  }
  deliver(p);
}

void Link::deliver(Packet* p) {
  if (deliver_) deliver_(*p);
  pool_.release(p);
}

void Link::restore_from(const Link& src) {
  assert(!busy() && prop_.empty());  // a fork shell's link, fresh from construction
  config_ = src.config_;
  rng_ = src.rng_;
  if (fault_ != nullptr && src.fault_ != nullptr) fault_->restore_from(*src.fault_);
  stats_ = src.stats_;
  // Fresh slots: identity lives in the EventIds and stamps, not the address.
  auto copy = [this](const Packet& from) {
    Packet* p = pool_.acquire();
    *p = from;
    return p;
  };
  for (std::size_t i = 0; i < src.queue_.size(); ++i) queue_.push_back(copy(*src.queue_.at(i)));
  in_service_ = src.busy() ? copy(*src.in_service_) : nullptr;
  tx_parked_ = src.tx_parked_;
  if (src.tx_timer_.pending()) {
    if (tx_parked_) {
      tx_timer_.clone_from(src.tx_timer_, [this] { start_transmission(); });
    } else {
      tx_timer_.clone_from(src.tx_timer_, [this] { finish_transmission(); });
    }
  }
  for (std::size_t i = 0; i < src.prop_.size(); ++i) {
    prop_.push_back({copy(*src.prop_.at(i).pkt), src.prop_.at(i).when, src.prop_.at(i).seq});
  }
  head_event_ = src.head_event_;
  if (!prop_.empty()) sim_.rebind(head_event_, [this] { deliver_head(); });
  // Overtaking packets are the only slots with an event of their own.
  src.pool_.for_each_slot([&](const Packet& from) {
    if (from.prop_event == 0) return;
    Packet* p = copy(from);
    sim_.rebind(p->prop_event, [this, p] { deliver(p); });
  });
}

}  // namespace mps
