#include "mptcp/connection.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/prof.h"
#include "obs/recorder.h"

namespace mps {

Connection::Connection(Simulator& sim, ConnectionConfig config, const std::vector<Path*>& paths,
                       std::unique_ptr<Scheduler> scheduler, Mux& down_mux, Mux& up_mux)
    : sim_(sim),
      config_(config),
      scheduler_(std::move(scheduler)),
      down_mux_(down_mux),
      up_mux_(up_mux),
      rwnd_(config.rcv_autotune ? config.rcv_initial_window : config.rcvbuf_bytes),
      drs_window_(config.rcv_initial_window) {
  assert(!paths.empty());
  assert(scheduler_ != nullptr);
  bind_and_instrument();

  slots_.reserve(paths.size());
  subflow_ptrs_.reserve(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const Duration join_delay = i > 0 && config_.delayed_secondary_join
                                    ? paths[i]->rtt_base()  // MP_JOIN handshake
                                    : Duration::zero();
    open_slot(*paths[i], join_delay);
  }
  add_routes();
}

Connection::Connection(const Connection& src, const TwinWorld& world,
                       std::unique_ptr<Scheduler> scheduler)
    : sim_(world.sim),
      config_(src.config_),
      scheduler_(std::move(scheduler)),
      down_mux_(world.down_mux),
      up_mux_(world.up_mux),
      remap_queue_(src.remap_queue_),
      remap_bytes_(src.remap_bytes_),
      send_queue_bytes_(src.send_queue_bytes_),
      next_data_seq_(src.next_data_seq_),
      data_una_(src.data_una_),
      rwnd_(src.rwnd_),
      last_reinjected_seq_(src.last_reinjected_seq_),
      sendable_post_pending_(src.sendable_post_pending_),
      sendable_post_id_(src.sendable_post_id_),
      rcv_data_next_(src.rcv_data_next_),
      drs_window_(src.drs_window_),
      drs_mark_bytes_(src.drs_mark_bytes_),
      meta_ooo_(src.meta_ooo_),
      meta_ooo_bytes_(src.meta_ooo_bytes_),
      pending_deliver_bytes_(src.pending_deliver_bytes_),
      pending_deliver_when_(src.pending_deliver_when_),
      deliver_post_pending_(src.deliver_post_pending_),
      deliver_post_id_(src.deliver_post_id_),
      meta_stats_(src.meta_stats_),
      ooo_delay_(src.ooo_delay_),
      sndbuf_blocked_(src.sndbuf_blocked_),
      sndbuf_blocked_since_(src.sndbuf_blocked_since_) {
  assert(scheduler_ != nullptr);
  bind_and_instrument();
  scheduler_->restore_from(*src.scheduler_);

  // Slot for slot, finalized ones included (their path and retired stats
  // survive; sender and receiver died together).
  slots_.reserve(src.slots_.size());
  subflow_ptrs_.reserve(src.subflow_ptrs_.size());
  for (const Slot& from : src.slots_) {
    Slot& slot = slots_.emplace_back();
    slot.path = &world.path_for(*from.path);
    slot.retired = from.retired;
    if (from.sender == nullptr) continue;
    slot.sender = std::make_unique<Subflow>(*from.sender, sim_, *slot.path, this);
    slot.receiver = std::make_unique<SubflowReceiver>(*from.receiver, sim_, *slot.path, this);
    subflow_ptrs_.push_back(slot.sender.get());
  }
  if (sendable_post_pending_) sim_.rebind(sendable_post_id_, [this] { fire_sendable(); });
  if (deliver_post_pending_) sim_.rebind(deliver_post_id_, [this] { fire_deliveries(); });
  add_routes();
}

void Connection::bind_and_instrument() {
  scheduler_->bind(sim_, config_.conn_id);
  obs_ = &detached_instruments();
  FlightRecorder* rec = sim_.recorder();
  if (rec == nullptr) return;
  obs_owned_ = std::make_unique<Instruments>();
  obs_ = obs_owned_.get();
  MetricsRegistry& m = rec->metrics();
  MetricLabels labels;
  labels.conn = static_cast<std::int64_t>(config_.conn_id);
  obs_->ooo_bytes_total = m.counter("conn.ooo_bytes_total", labels);
  obs_->reinjections = m.counter("conn.reinjections", labels);
  obs_->window_stalls = m.counter("conn.window_stalls", labels);
  obs_->sndbuf_blocked_ns = m.counter("conn.sndbuf_blocked_ns", labels);
  obs_->meta_ooo_bytes = m.gauge("conn.meta_ooo_bytes", labels);
  obs_->reorder_segments = m.gauge("conn.reorder_segments", labels);
}

void Connection::add_routes() {
  // Slots may be null after mid-connection teardown; stray packets for a
  // finalized subflow (late duplicate acks, post-abandon data) are dropped,
  // the RST-less analogue of landing on a closed port.
  down_mux_.add_route(config_.conn_id, this, [](void* self, const Packet& p) {
    Connection& c = *static_cast<Connection*>(self);
    if (p.subflow_id < c.slots_.size() && c.slots_[p.subflow_id].receiver != nullptr) {
      c.slots_[p.subflow_id].receiver->on_data_packet(p);
    }
  });
  up_mux_.add_route(config_.conn_id, this, [](void* self, const Packet& p) {
    Connection& c = *static_cast<Connection*>(self);
    if (p.subflow_id < c.slots_.size() && c.slots_[p.subflow_id].sender != nullptr) {
      c.slots_[p.subflow_id].sender->on_ack_packet(p);
    }
  });
}

Path& TwinWorld::path_for(const Path& src) const {
  for (std::size_t i = 0; i < src_paths.size(); ++i) {
    if (src_paths[i] == &src) return *paths[i];
  }
  throw std::logic_error("TwinWorld: a connection runs over a path outside its world");
}

std::uint32_t Connection::open_slot(Path& path, Duration join_delay) {
  const auto id = static_cast<std::uint32_t>(slots_.size());
  Slot& slot = slots_.emplace_back();
  slot.sender = std::make_unique<Subflow>(sim_, subflow_config_for(id, join_delay), path,
                                          config_.cc, this);
  slot.receiver = std::make_unique<SubflowReceiver>(sim_, config_.conn_id, id, path, this);
  slot.path = &path;
  // Live subflows precede the new id, so appending keeps the list compacted
  // in id order.
  subflow_ptrs_.push_back(slot.sender.get());
  return id;
}

SubflowConfig Connection::subflow_config_for(std::uint32_t id, Duration join_delay) const {
  SubflowConfig sc;
  sc.id = id;
  sc.conn_id = config_.conn_id;
  sc.mss = config_.mss;
  sc.initial_cwnd = config_.initial_cwnd;
  sc.idle_cwnd_reset = config_.idle_cwnd_reset;
  sc.staging_limit_bytes = config_.subflow_staging_bytes;
  sc.join_delay = join_delay;
  return sc;
}

Connection::Instruments& Connection::detached_instruments() {
  static Instruments detached;  // all handles unattached: every op is a no-op
  return detached;
}

Connection::~Connection() {
  down_mux_.remove_route(config_.conn_id);
  up_mux_.remove_route(config_.conn_id);
  // Under churn a connection can die with a deferred sendable/deliver post
  // still queued; those lambdas capture `this` and must not fire.
  if (sendable_post_pending_) sim_.cancel(sendable_post_id_);
  if (deliver_post_pending_) sim_.cancel(deliver_post_id_);
}

// ---------------------------------------------------------------------------
// Dynamic path management

std::uint32_t Connection::add_subflow(Path& path, Duration join_delay) {
  const std::uint32_t id = open_slot(path, join_delay);
  cc_terms_valid_ = false;  // new sibling (and a new establishment horizon)
  scheduler_->on_subflow_change(*this);
  MPS_TRACE_EVENT(sim_, EventType::kSubflowChange, config_.conn_id, id, {"op", "add"});
  return id;
}

void Connection::remove_subflow(std::uint32_t id, TeardownMode mode) {
  assert(id < slots_.size() && slots_[id].sender != nullptr);
  Subflow& sf = *slots_[id].sender;
  if (mode == TeardownMode::kDrain && !sf.drained()) {
    sf.begin_drain();
    // Membership is unchanged (a draining subflow stays visible so its
    // in-flight data keeps counting), but its eligibility flipped.
    scheduler_->on_subflow_change(*this);
    MPS_TRACE_EVENT(sim_, EventType::kSubflowChange, config_.conn_id, id,
                    {"op", "drain"});
    return;
  }
  // Abandon (or drain with nothing outstanding): every data range the
  // subflow still holds a sender copy of moves to the remap queue before the
  // slot dies, so the conservation invariant never sees a gap. Ranges whose
  // data the peer already meta-acked are skipped; remapped duplicates of
  // SACKed data are dropped by the meta receiver.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  sf.collect_data_ranges(ranges);
  std::sort(ranges.begin(), ranges.end());
  for (const auto& [begin, end] : ranges) {
    if (end <= data_una_) continue;
    remap_queue_.push_back(
        SegmentRef{begin, static_cast<std::uint32_t>(end - begin)});
    remap_bytes_ += end - begin;
  }
  finalize_subflow(id);
  scheduler_->on_subflow_change(*this);
  MPS_TRACE_EVENT(sim_, EventType::kSubflowChange, config_.conn_id, id,
                  {"op", "abandon"}, {"remap_bytes", remap_bytes_});
  if (!remap_queue_.empty()) try_send();
}

std::size_t Connection::finalize_drained() {
  std::size_t finalized = 0;
  for (std::uint32_t id = 0; id < slots_.size(); ++id) {
    Subflow* sf = slots_[id].sender.get();
    if (sf == nullptr || !sf->draining() || !sf->drained()) continue;
    finalize_subflow(id);
    ++finalized;
  }
  if (finalized > 0) scheduler_->on_subflow_change(*this);
  return finalized;
}

void Connection::finalize_subflow(std::uint32_t id) {
  Slot& slot = slots_[id];
  slot.retired = slot.sender->stats();
  slot.sender.reset();
  slot.receiver.reset();
  rebuild_subflow_ptrs();
  cc_terms_valid_ = false;  // sibling left the coupled group
}

void Connection::rebuild_subflow_ptrs() {
  subflow_ptrs_.clear();
  for (const Slot& slot : slots_) {
    if (slot.sender != nullptr) subflow_ptrs_.push_back(slot.sender.get());
  }
}

std::uint64_t Connection::bytes_sent_on(const Path& path) const {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) {
    if (slot.path != &path) continue;
    total += slot.sender != nullptr ? slot.sender->stats().bytes_sent
                                    : slot.retired.bytes_sent;
  }
  return total;
}

void Connection::collect_remap_ranges(
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) const {
  for (std::size_t i = 0; i < remap_queue_.size(); ++i) {
    const SegmentRef& seg = remap_queue_.at(i);
    out.emplace_back(seg.data_seq, seg.data_seq + seg.payload);
  }
}

void Connection::service_remap_queue() {
  while (!remap_queue_.empty()) {
    const SegmentRef seg = remap_queue_.front();
    if (seg.data_seq + seg.payload <= data_una_) {
      // Meta-acked while queued (a duplicate copy elsewhere delivered it).
      remap_queue_.pop_front();
      remap_bytes_ -= seg.payload;
      continue;
    }
    Subflow* sf = scheduler_->pick(*this);
    if (sf == nullptr || !sf->can_accept()) break;
    scheduler_->note_scheduled(sf->id());
    sf->assign_segment(seg.data_seq, seg.payload, /*reinjection=*/true);
    remap_queue_.pop_front();
    remap_bytes_ -= seg.payload;
    ++meta_stats_.remapped_segments;
  }
}

// ---------------------------------------------------------------------------
// Sender side

std::uint64_t Connection::sndbuf_used() const {
  return send_queue_bytes_ + meta_inflight();
}

std::uint64_t Connection::sndbuf_free() const {
  const std::uint64_t used = sndbuf_used();
  return used >= config_.sndbuf_bytes ? 0 : config_.sndbuf_bytes - used;
}

std::uint64_t Connection::send(std::uint64_t len) {
  const std::uint64_t accepted = std::min(len, sndbuf_free());
  send_queue_bytes_ += accepted;
  if (accepted < len && !sndbuf_blocked_) {
    sndbuf_blocked_ = true;
    sndbuf_blocked_since_ = sim_.now();
  }
  if (accepted > 0) try_send();
  return accepted;
}

void Connection::try_send() {
  if (in_try_send_) return;  // no re-entrant scheduling rounds
  in_try_send_ = true;

  for (Subflow* sf : subflow_ptrs_) sf->poll();

  service_remap_queue();

  while (send_queue_bytes_ > 0) {
    if (meta_inflight() >= rwnd_) {
      ++meta_stats_.window_stalls;
      obs_->window_stalls.inc();
      MPS_TRACE_EVENT(sim_, EventType::kWindowStall, config_.conn_id, -1,
                      {"inflight", meta_inflight()}, {"rwnd", rwnd_});
      try_opportunistic_retransmit();
      break;
    }
    Subflow* sf = nullptr;
    {
      MPS_PROF_SCOPE(kSchedDecide);
      sf = scheduler_->pick(*this);
    }
    if (sf == nullptr || !sf->can_accept()) break;
    scheduler_->note_scheduled(sf->id());
    const std::uint32_t payload =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(config_.mss, send_queue_bytes_));
    const std::uint64_t n = sf->assign_segments(next_data_seq_, payload, run_limit(payload));
    if (scheduler_->duplicate_to_all()) {
      assert(n == 1);  // duplicating schedulers never declare stable picks
      // Redundant semantics: a copy committed to every other subflow with
      // send-queue room, de-duplicated by the meta receiver. Never onto a
      // draining subflow — a duplicate staged there would keep it from ever
      // reaching drained(), and an abandon would re-queue the copy again.
      for (Subflow* other : subflow_ptrs_) {
        if (other == sf || other->draining() || !other->can_accept()) continue;
        other->assign_segment(next_data_seq_, payload, /*reinjection=*/true);
      }
    }
    next_data_seq_ += n * payload;
    send_queue_bytes_ -= n * payload;
    meta_stats_.segments_scheduled += n;
  }

  in_try_send_ = false;
}

std::uint64_t Connection::run_limit(std::uint32_t payload) const {
  if (!scheduler_->stable_pick() || scheduler_->explaining()) return 1;
  // Committing segment i (0-based) needs queued bytes for it and, as the
  // loop's window check, meta_inflight() + i * payload < rwnd_. A short
  // final segment (payload < mss) is the whole queue, so it runs alone.
  const std::uint64_t queued = send_queue_bytes_ / payload;
  const std::uint64_t window = (rwnd_ - meta_inflight() + payload - 1) / payload;
  return std::min(queued, window);
}

void Connection::try_opportunistic_retransmit() {
  if (!config_.opportunistic_retransmission) return;
  // Find the subflow owning the lowest outstanding (un-data-acked) segment:
  // that segment is what stalls the meta window.
  Subflow* blocker = nullptr;
  SegmentRef oldest{};
  for (Subflow* sf : subflow_ptrs_) {
    if (!sf->has_unacked()) continue;
    const SegmentRef ref = sf->oldest_unacked();
    if (blocker == nullptr || ref.data_seq < oldest.data_seq) {
      blocker = sf;
      oldest = ref;
    }
  }
  if (blocker == nullptr) return;
  if (oldest.data_seq == last_reinjected_seq_) return;  // once per segment

  // Reinject on the fastest other subflow with free CWND.
  Subflow* carrier = nullptr;
  for (Subflow* sf : subflow_ptrs_) {
    if (sf == blocker || !sf->can_send()) continue;
    if (carrier == nullptr || sf->rtt_estimate() < carrier->rtt_estimate()) carrier = sf;
  }
  if (carrier == nullptr || carrier->rtt_estimate() >= blocker->rtt_estimate()) return;

  carrier->send_segment(oldest.data_seq, oldest.payload, /*reinjection=*/true);
  last_reinjected_seq_ = oldest.data_seq;
  ++meta_stats_.reinjections;
  obs_->reinjections.inc();
  MPS_TRACE_EVENT(sim_, EventType::kReinjection, config_.conn_id, carrier->id(),
                  {"dseq", oldest.data_seq}, {"len", oldest.payload},
                  {"blocker", static_cast<std::int64_t>(blocker->id())});
  if (config_.penalization) blocker->penalize();
}

void Connection::on_subflow_ack(Subflow&) { try_send(); }

void Connection::on_data_ack(std::uint64_t data_ack) {
  if (data_ack <= data_una_) return;
  data_una_ = std::min(data_ack, next_data_seq_);
  if (sndbuf_blocked_ && sndbuf_free() > 0) {
    sndbuf_blocked_ = false;
    obs_->sndbuf_blocked_ns.inc(
        static_cast<std::uint64_t>((sim_.now() - sndbuf_blocked_since_).ns()));
  }
  notify_sendable();
}

void Connection::on_rwnd_update(std::uint64_t rwnd) { rwnd_ = rwnd; }

void Connection::notify_sendable() {
  if (!on_sendable || sendable_post_pending_ || sndbuf_free() == 0) return;
  sendable_post_pending_ = true;
  sendable_post_id_ = sim_.post([this] { fire_sendable(); });
}

void Connection::fire_sendable() {
  sendable_post_pending_ = false;
  if (on_sendable && sndbuf_free() > 0) on_sendable();
}

void Connection::cc_sibling_info(std::vector<CcSiblingInfo>& out) const {
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    const Subflow* sf = slot.sender.get();
    if (sf == nullptr) continue;
    CcSiblingInfo info;
    info.subflow_id = sf->id();
    info.cwnd = sf->cwnd();
    info.srtt_s = sf->rtt_estimate().to_seconds();
    info.established = sf->established();
    info.inter_loss_bytes = sf->inter_loss_bytes();
    out.push_back(info);
  }
}

const CoupledCcTerms& Connection::coupled_terms() const {
  const bool horizon_passed =
      !cc_terms_horizon_.is_never() && sim_.now() >= cc_terms_horizon_;
  if (!cc_terms_valid_ || horizon_passed) {
    cc_terms_.siblings.clear();
    cc_sibling_info(cc_terms_.siblings);
    cc_terms_.recompute();
    cc_terms_horizon_ = TimePoint::never();
    for (const Slot& slot : slots_) {
      const Subflow* sf = slot.sender.get();
      if (sf == nullptr || sf->established()) continue;
      cc_terms_horizon_ = std::min(cc_terms_horizon_, sf->established_at());
    }
    cc_terms_valid_ = true;
  }
  return cc_terms_;
}

void Connection::collect_ooo_ranges(
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) const {
  for (std::size_t i = 0; i < meta_ooo_.size(); ++i) {
    const auto& e = meta_ooo_.at(i);
    out.emplace_back(e.key, e.key + e.value.payload);
  }
}

// ---------------------------------------------------------------------------
// Receiver side

std::uint64_t Connection::meta_rwnd() const {
  // In-order data is consumed immediately by the application model, so only
  // out-of-order held bytes occupy the receive buffer.
  const std::uint64_t window =
      config_.rcv_autotune ? std::min(drs_window_, config_.rcvbuf_bytes) : config_.rcvbuf_bytes;
  return meta_ooo_bytes_ >= window ? 0 : window - meta_ooo_bytes_;
}

void Connection::on_wire_arrival(std::uint32_t subflow_id, std::uint64_t data_seq,
                                 std::uint32_t payload, TimePoint arrival) {
  if (on_wire_arrival_hook) on_wire_arrival_hook(subflow_id, data_seq, payload, arrival);
}

void Connection::on_subflow_deliver(std::uint32_t /*subflow_id*/, std::uint64_t data_seq,
                                    std::uint32_t payload, TimePoint wire_arrival) {
  const TimePoint now = sim_.now();
  if (data_seq + payload <= rcv_data_next_) {
    ++meta_stats_.duplicate_segments;  // reinjection or spurious retransmit
    return;
  }
  if (data_seq > rcv_data_next_) {
    // Hold out of order; duplicates of held segments are dropped.
    auto [held, inserted] = meta_ooo_.try_emplace(data_seq, HeldSeg{payload, wire_arrival});
    if (inserted) {
      meta_ooo_bytes_ += payload;
      obs_->ooo_bytes_total.inc(payload);
      obs_->meta_ooo_bytes.set(now, static_cast<double>(meta_ooo_bytes_));
      obs_->reorder_segments.set(now, static_cast<double>(meta_ooo_.size()));
    } else {
      ++meta_stats_.duplicate_segments;
      // A duplicate that reaches past the held copy carries bytes the held
      // segment does not cover; adopt the longer coverage. Dropping it would
      // strand [held_end, new_end): the subflow has acked the carrier, so no
      // sender copy remains, and the drained hole could never fill.
      if (payload > held->payload) {
        const std::uint32_t extra = payload - held->payload;
        held->payload = payload;
        meta_ooo_bytes_ += extra;
        obs_->ooo_bytes_total.inc(extra);
        obs_->meta_ooo_bytes.set(now, static_cast<double>(meta_ooo_bytes_));
      }
    }
    return;
  }

  // In meta order (possibly overlapping the cumulative point after a partial
  // duplicate; deliver only the new part).
  const std::uint64_t new_bytes = data_seq + payload - rcv_data_next_;
  rcv_data_next_ += new_bytes;
  meta_stats_.delivered_bytes += new_bytes;
  ooo_delay_.add((now - wire_arrival).to_seconds());
  pending_deliver_bytes_ += new_bytes;

  // Drain contiguous held segments.
  const bool had_held = !meta_ooo_.empty();
  while (!meta_ooo_.empty() && meta_ooo_.front_key() <= rcv_data_next_) {
    const HeldSeg& held = meta_ooo_.front_value();
    const std::uint64_t seg_end = meta_ooo_.front_key() + held.payload;
    if (seg_end > rcv_data_next_) {
      const std::uint64_t drained = seg_end - rcv_data_next_;
      rcv_data_next_ = seg_end;
      meta_stats_.delivered_bytes += drained;
      ooo_delay_.add((now - held.arrival).to_seconds());
      pending_deliver_bytes_ += drained;
    } else {
      ++meta_stats_.duplicate_segments;
    }
    meta_ooo_bytes_ -= held.payload;
    meta_ooo_.pop_front();
  }
  if (had_held) {
    obs_->meta_ooo_bytes.set(now, static_cast<double>(meta_ooo_bytes_));
    obs_->reorder_segments.set(now, static_cast<double>(meta_ooo_.size()));
  }

  // Dynamic right-sizing: once a full window of in-order data has been
  // consumed since the last adjustment, double the advertised window (the
  // sender saturating the window implies it could use more).
  if (config_.rcv_autotune && drs_window_ < config_.rcvbuf_bytes &&
      meta_stats_.delivered_bytes - drs_mark_bytes_ >= drs_window_) {
    drs_window_ = std::min(drs_window_ * 2, config_.rcvbuf_bytes);
    drs_mark_bytes_ = meta_stats_.delivered_bytes;
  }

  flush_deliveries();
}

void Connection::flush_deliveries() {
  if (pending_deliver_bytes_ == 0 || deliver_post_pending_) return;
  deliver_post_pending_ = true;
  pending_deliver_when_ = sim_.now();
  // Deferred so application reactions (next GET, more send()) run outside
  // the packet-processing call stack.
  deliver_post_id_ = sim_.post([this] { fire_deliveries(); });
}

void Connection::fire_deliveries() {
  deliver_post_pending_ = false;
  const std::uint64_t bytes = pending_deliver_bytes_;
  pending_deliver_bytes_ = 0;
  if (on_deliver && bytes > 0) on_deliver(bytes, pending_deliver_when_);
}

// ---------------------------------------------------------------------------
// What-if divergence

void Connection::set_scheduler(std::unique_ptr<Scheduler> scheduler) {
  assert(scheduler != nullptr);
  scheduler_ = std::move(scheduler);
  scheduler_->bind(sim_, config_.conn_id);
}

}  // namespace mps
