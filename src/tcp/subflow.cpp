#include "tcp/subflow.h"

#include <algorithm>
#include <cassert>

#include "obs/prof.h"
#include "obs/recorder.h"

namespace mps {

Subflow::Subflow(Simulator& sim, const SubflowConfig& config, std::uint32_t id, Path& path,
                 CcKind cc, SubflowEnv* env, Duration join_delay)
    : sim_(sim),
      config_(config),
      path_(path),
      env_(env),
      cc_(make_cc_state(cc)),
      cwnd_(config.initial_cwnd),
      rto_timer_(sim),
      rack_timer_(sim),
      established_at_(sim.now() + join_delay),
      id_(id) {
  attach_instruments();
  obs_->cwnd.set(sim_.now(), cwnd_);
}

Subflow::Subflow(const Subflow& src, Simulator& sim, const SubflowConfig& config, Path& path,
                 SubflowEnv* env)
    : sim_(sim),
      config_(config),
      path_(path),
      env_(env),
      cc_(src.cc_),
      rtt_(src.rtt_),
      cwnd_(src.cwnd_),
      ssthresh_(src.ssthresh_),
      next_seq_(src.next_seq_),
      snd_una_(src.snd_una_),
      inflight_(src.inflight_),
      staged_(src.staged_),
      staged_bytes_(src.staged_bytes_),
      recover_point_(src.recover_point_),
      sack_high_(src.sack_high_),
      lost_not_rtx_(src.lost_not_rtx_),
      sacked_count_(src.sacked_count_),
      // The timers hold fixed callbacks per owner (arm_rto / arm_rack_timer),
      // so adopting src's events re-creates the exact closures the source
      // installed.
      rto_timer_(src.rto_timer_, sim, [this] { on_rto_fire(); }),
      rack_timer_(src.rack_timer_, sim,
                  [this] {
                    update_loss_marks();
                    pump_retransmissions();
                  }),
      rack_delivered_ts_(src.rack_delivered_ts_),
      established_at_(src.established_at_),
      last_send_time_(src.last_send_time_),
      last_penalty_(src.last_penalty_),
      inter_loss_bytes_(src.inter_loss_bytes_),
      stats_(src.stats_),
      transmit_counter_(src.transmit_counter_),
      id_(src.id_),
      dupacks_(src.dupacks_),
      rto_backoff_(src.rto_backoff_),
      in_recovery_(src.in_recovery_),
      draining_(src.draining_),
      cwnd_full_at_send_(src.cwnd_full_at_send_) {
  attach_instruments();
}

void Subflow::attach_instruments() {
  obs_.reset(&detached_instruments());
  FlightRecorder* rec = sim_.recorder();
  if (rec == nullptr) return;
  obs_.reset(new Instruments());
  MetricsRegistry& m = rec->metrics();
  const MetricLabels l{static_cast<std::int64_t>(config_.conn_id),
                       static_cast<std::int64_t>(id_), {}};
  obs_->segments_sent = m.counter("subflow.segments_sent", l);
  obs_->retransmits = m.counter("subflow.retransmits", l);
  obs_->fast_recoveries = m.counter("subflow.fast_recoveries", l);
  obs_->rtos = m.counter("subflow.rtos", l);
  obs_->idle_resets = m.counter("subflow.idle_cwnd_resets", l);
  obs_->penalizations = m.counter("subflow.penalizations", l);
  obs_->reinjections_carried = m.counter("subflow.reinjections_carried", l);
  obs_->cwnd = m.gauge("subflow.cwnd", l);
  obs_->srtt_ms = m.gauge("subflow.srtt_ms", l);
  obs_->rtt_sample_ms = m.histogram("subflow.rtt_sample_ms", l);
}

Subflow::Instruments& Subflow::detached_instruments() {
  static Instruments detached;  // all handles unattached: every op is a no-op
  return detached;
}

CongestionController::AckContext Subflow::make_ctx() const {
  CongestionController::AckContext ctx;
  ctx.self_id = id_;
  ctx.cwnd = cwnd_;
  ctx.ssthresh = ssthresh_;
  ctx.srtt_s = rtt_estimate().to_seconds();
  ctx.inter_loss_bytes = inter_loss_bytes_;
  ctx.group = env_ != nullptr ? env_->cc_group() : nullptr;
  ctx.now = sim_.now();
  return ctx;
}

void Subflow::set_cwnd(double cwnd) {
  cwnd = std::max(cwnd, config_.min_cwnd);
  if (cwnd == cwnd_) return;
  cwnd_ = cwnd;
  if (env_ != nullptr) env_->on_cc_input_change();
  obs_->cwnd.set(sim_.now(), cwnd_);
}

void Subflow::poll() {
  maybe_idle_reset();
  transmit_staged();
}

void Subflow::maybe_idle_reset() {
  if (!config_.idle_cwnd_reset) return;
  if (last_send_time_.is_never() || !inflight_.empty()) return;
  const Duration idle = sim_.now() - last_send_time_;
  if (idle < rto()) return;
  // Linux tcp_cwnd_restart: decay toward the restart window; the paper's
  // description ("resets the CWND to the initial window value and restarts
  // from the slow-start phase") corresponds to the full decay, which an OFF
  // period of a second or more always reaches.
  if (cwnd_ > config_.initial_cwnd) {
    ++stats_.iw_resets;
    ++stats_.idle_resets;
    obs_->idle_resets.inc();
    MPS_TRACE_EVENT(sim_, EventType::kIdleReset, config_.conn_id, id_,
                    {"old_cwnd", cwnd_}, {"idle_s", idle.to_seconds()});
    // RFC 2861 congestion window validation, as in Linux
    // tcp_cwnd_application_limited: remember the achieved operating point in
    // ssthresh so slow start can return to 3/4 of it quickly.
    ssthresh_ = std::max(ssthresh_, 0.75 * cwnd_);
    set_cwnd(config_.initial_cwnd);
  }
  // Prevent re-counting the same idle period.
  last_send_time_ = TimePoint::never();
}

bool Subflow::can_send() const {
  return established() && !draining_ && available_cwnd() >= 1;
}

bool Subflow::can_accept() const {
  return established() && !draining_ && staged_bytes_ < config_.staging_limit_bytes;
}

std::uint64_t Subflow::assign_segments(std::uint64_t data_seq, std::uint32_t payload,
                                       std::uint64_t max_segments, bool reinjection) {
  assert(established() && payload > 0 && max_segments > 0);
  std::uint64_t n = 0;
  if (staged_.empty()) {
    // One reservation for the burst, so a first window does not walk the
    // scoreboard through every doubling on the way to its size.
    const std::int64_t room = available_cwnd();
    if (room > 0) {
      inflight_.reserve(inflight_.size() +
                        std::min(max_segments, static_cast<std::uint64_t>(room)));
    }
    while (n < max_segments && staged_.empty() && available_cwnd() >= 1) {
      send_segment(data_seq + n * payload, payload, reinjection);
      ++n;
    }
  }
  if (n == max_segments) return n;
  // The rest is staged. Segment j of the staged part (staged bytes S + j *
  // payload before it) may be committed while S + j * payload < limit,
  // except the run's very first segment, which the caller already vetted.
  const std::uint64_t limit = config_.staging_limit_bytes;
  std::uint64_t stage =
      staged_bytes_ < limit ? (limit - staged_bytes_ + payload - 1) / payload : 0;
  if (n == 0) stage = std::max<std::uint64_t>(stage, 1);
  stage = std::min(stage, max_segments - n);
  if (stage == 0) return n;
  stage_run(data_seq + n * payload, payload, stage, reinjection);
  return n + stage;
}

void Subflow::stage_run(std::uint64_t data_seq, std::uint32_t payload, std::uint64_t count,
                        bool reinjection) {
  staged_bytes_ += count * payload;
  if (!staged_.empty()) {
    StagedSeg& tail = staged_.back();
    if (tail.payload == payload && tail.reinjection == reinjection &&
        tail.data_seq + std::uint64_t{tail.count} * tail.payload == data_seq) {
      const std::uint64_t take = std::min<std::uint64_t>(count, UINT16_MAX - tail.count);
      tail.count = static_cast<std::uint16_t>(tail.count + take);
      data_seq += take * payload;
      count -= take;
    }
  }
  while (count > 0) {
    const std::uint64_t take = std::min<std::uint64_t>(count, UINT16_MAX);
    staged_.push_back(
        StagedSeg{data_seq, payload, static_cast<std::uint16_t>(take), reinjection});
    data_seq += take * payload;
    count -= take;
  }
}

void Subflow::transmit_staged() {
  while (!staged_.empty() && available_cwnd() >= 1) {
    StagedSeg& run = staged_.front();
    const StagedSeg seg = run;
    if (--run.count == 0) {
      staged_.pop_front();
    } else {
      run.data_seq += run.payload;
    }
    staged_bytes_ -= seg.payload;
    send_segment(seg.data_seq, seg.payload, seg.reinjection);
  }
}

std::int64_t Subflow::available_cwnd() const {
  return static_cast<std::int64_t>(cwnd_) - static_cast<std::int64_t>(pipe());
}

void Subflow::send_segment(std::uint64_t data_seq, std::uint32_t payload, bool reinjection) {
  assert(established());
  maybe_idle_reset();

  Packet pkt;
  pkt.conn_id = config_.conn_id;
  pkt.subflow_id = id_;
  pkt.subflow_seq = next_seq_++;
  pkt.data_seq = data_seq;
  pkt.payload = payload;
  pkt.ts_val = sim_.now();
  pkt.transmit_seq = transmit_counter_++;

  assert(pkt.subflow_seq == inflight_.hi());  // dense scoreboard: new seqs only at the top
  inflight_.push_back(SentSeg{data_seq, sim_.now(), payload, false, false, false});
  if (static_cast<double>(pipe()) >= cwnd_ - 1.0) cwnd_full_at_send_ = true;
  path_.down().send(pkt);

  last_send_time_ = sim_.now();
  if (reinjection) {
    ++stats_.reinjected_segments;
    obs_->reinjections_carried.inc();
  } else {
    ++stats_.segments_sent;
    stats_.bytes_sent += payload;
    obs_->segments_sent.inc();
  }
  MPS_TRACE_EVENT(sim_, EventType::kPktSend, config_.conn_id, id_,
                  {"seq", pkt.subflow_seq}, {"dseq", data_seq}, {"len", payload},
                  {"reinjection", reinjection}, {"cwnd", cwnd_});
  if (!rto_timer_.pending()) arm_rto();
}

void Subflow::collect_data_ranges(
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) const {
  for (std::uint64_t seq = inflight_.lo(); seq != inflight_.hi(); ++seq) {
    const SentSeg& seg = inflight_[seq];
    out.emplace_back(seg.data_seq, seg.data_seq + seg.payload);
  }
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    const StagedSeg& run = staged_.at(i);
    for (std::uint64_t k = 0, seq = run.data_seq; k < run.count; ++k, seq += run.payload) {
      out.emplace_back(seq, seq + run.payload);
    }
  }
}

SegmentRef Subflow::oldest_unacked() const {
  assert(!inflight_.empty());
  const SentSeg& s = inflight_.front();
  return SegmentRef{s.data_seq, s.payload};
}

void Subflow::penalize() {
  // Raiciu et al.: halve the slow subflow's CWND, at most once per RTT, when
  // it blocks the meta send window.
  const TimePoint now = sim_.now();
  if (!last_penalty_.is_never() && now - last_penalty_ < rtt_estimate()) return;
  last_penalty_ = now;
  ++stats_.penalizations;
  obs_->penalizations.inc();
  MPS_TRACE_EVENT(sim_, EventType::kPenalize, config_.conn_id, id_,
                  {"cwnd", cwnd_});
  ssthresh_ = std::max(cwnd_ / 2.0, config_.min_cwnd);
  set_cwnd(ssthresh_);
}

void Subflow::on_ack_packet(const Packet& ack) {
  assert(ack.is_ack);
  if (env_ != nullptr) {
    env_->on_rwnd_update(ack.rwnd);
    env_->on_data_ack(ack.data_ack);
  }
  const std::uint64_t prev_una = snd_una_;
  const std::uint64_t prev_sack_high = sack_high_;
  sack_high_ = std::max(sack_high_, ack.sack_high);
  const bool newly_sacked = apply_sack(ack);

  if (ack.ack_seq > snd_una_) {
    process_new_ack(ack);
  } else if (!inflight_.empty()) {
    process_dupack(ack);
  }

  // Delivery evidence for RACK: this ack confirmed new data at the receiver,
  // and its echoed timestamp tells us when the newest confirmed transmission
  // left this sender.
  if (snd_una_ > prev_una || sack_high_ > prev_sack_high || newly_sacked) {
    rack_delivered_ts_ = std::max(rack_delivered_ts_, ack.ts_val);
  }

  update_loss_marks();
  pump_retransmissions();
  // Freed window space first serves this subflow's committed backlog; only
  // then may the connection schedule new data.
  transmit_staged();
  if (env_ != nullptr) env_->on_subflow_ack(*this);
}

void Subflow::process_new_ack(const Packet& ack) {
  std::uint32_t acked_segments = 0;
  std::uint64_t acked_bytes = 0;
  while (!inflight_.empty() && inflight_.lo() < ack.ack_seq) {
    const SentSeg& seg = inflight_.front();
    if (seg.lost && !seg.retransmitted) {
      assert(lost_not_rtx_ > 0);
      --lost_not_rtx_;
    }
    if (seg.sacked) {
      assert(sacked_count_ > 0);
      --sacked_count_;
    }
    acked_bytes += seg.payload;
    ++acked_segments;
    inflight_.pop_front();
  }
  snd_una_ = ack.ack_seq;
  dupacks_ = 0;
  // Karn's algorithm (RFC 6298 5.7): keep the backed-off RTO until an ack
  // for data that was *not* retransmitted arrives; an ack elicited by a
  // retransmission says nothing about the path's current RTT regime.
  if (!ack.ts_retransmit) rto_backoff_ = 0;
  inter_loss_bytes_ += static_cast<double>(acked_bytes);

  // Karn's algorithm: only sample RTT from echoes of original transmissions.
  if (!ack.ts_retransmit) {
    const Duration sample = sim_.now() - ack.ts_val;
    rtt_.add_sample(sample);
    ++stats_.rtt_samples;
    obs_->srtt_ms.set(sim_.now(), rtt_.srtt().to_millis());
    obs_->rtt_sample_ms.record(sample.to_millis());
  }
  // inter_loss_bytes_ advanced (and possibly the RTT estimate): the group's
  // cached coupled-CC terms must not serve the ca_increase calls below.
  if (env_ != nullptr) env_->on_cc_input_change();
  MPS_TRACE_EVENT(sim_, EventType::kPktAck, config_.conn_id, id_,
                  {"ack", ack.ack_seq}, {"acked", acked_segments},
                  {"srtt_ms", rtt_.srtt().to_millis()}, {"cwnd", cwnd_});

  if (in_recovery_) {
    if (ack.ack_seq >= recover_point_) {
      in_recovery_ = false;
      MPS_TRACE_EVENT(sim_, EventType::kRecoveryExit, config_.conn_id, id_,
                      {"ack", ack.ack_seq}, {"ssthresh", ssthresh_});
      set_cwnd(ssthresh_);
    }
    // Partial acks: loss marking + the retransmission pump (caller) handle
    // the remaining holes; no window growth during recovery.
  } else {
    // Window growth per acked full segment — but only when the window was
    // actually the limiting factor (Linux tcp_is_cwnd_limited, recorded at
    // transmit time); an application-limited subflow must not inflate its
    // window.
    if (cwnd_full_at_send_) {
      MPS_PROF_SCOPE(kCcUpdate);
      for (std::uint32_t i = 0; i < acked_segments; ++i) {
        if (in_slow_start()) {
          set_cwnd(cwnd_ + 1.0);
        } else {
          set_cwnd(cwnd_ + cc().ca_increase(make_ctx()));
        }
      }
    }
  }

  if (inflight_.empty()) {
    rto_timer_.cancel();
    cwnd_full_at_send_ = false;  // flight drained; re-evaluate at next send
  } else {
    arm_rto();
  }
}

void Subflow::process_dupack(const Packet& ack) {
  (void)ack;
  ++dupacks_;
  // With SACK feedback, loss marking (update_loss_marks) is the primary
  // detector. The classic three-dupack rule remains as a fallback for
  // patterns SACK cannot flag (e.g. a single loss with exactly three
  // following segments).
  if (!in_recovery_ && dupacks_ >= config_.dupack_threshold && lost_not_rtx_ == 0 &&
      !inflight_.empty()) {
    SentSeg& lowest = inflight_.front();
    if (!lowest.lost && !lowest.sacked) {
      lowest.lost = true;
      lowest.retransmitted = false;
      ++lost_not_rtx_;
      enter_fast_recovery();
    }
  }
}

bool Subflow::apply_sack(const Packet& ack) {
  bool newly_sacked = false;
  for (int b = 0; b < ack.n_sack; ++b) {
    // The dense scoreboard makes lower_bound a max(): intersect the SACK
    // block with [lo, hi) and walk it directly.
    const std::uint64_t from = std::max(inflight_.lo(), ack.sack_lo[b]);
    const std::uint64_t to = std::min(inflight_.hi(), ack.sack_hi[b]);
    for (std::uint64_t seq = from; seq < to; ++seq) {
      SentSeg& seg = inflight_[seq];
      if (seg.sacked) continue;
      seg.sacked = true;
      newly_sacked = true;
      ++sacked_count_;
      if (seg.lost) {
        seg.lost = false;
        if (!seg.retransmitted) {
          assert(lost_not_rtx_ > 0);
          --lost_not_rtx_;
        }
      }
    }
  }
  return newly_sacked;
}

Duration Subflow::rack_timeout() const {
  // ~1.25 smoothed RTTs, floored for very low-latency paths.
  return std::max(rtt_.srtt() + Duration::nanos(rtt_.srtt().ns() / 4), Duration::millis(40));
}

void Subflow::update_loss_marks() {
  // FACK rule: a non-SACKed segment is lost once >= dupack_threshold
  // segments above it have been received. Retransmissions are covered by a
  // RACK-style rule: a retransmission not SACKed within rack_timeout() of
  // its (re)send was itself lost.
  bool newly_lost = false;
  const std::uint64_t dupack_threshold = config_.dupack_threshold;
  for (std::uint64_t seq = inflight_.lo(); seq != inflight_.hi(); ++seq) {
    if (seq + dupack_threshold > sack_high_) break;
    SentSeg& seg = inflight_[seq];
    if (seg.lost || seg.sacked) continue;
    if (seg.retransmitted) {
      // Re-mark only with delivery evidence newer than the retransmission
      // itself (RFC 8985): the peer confirmed something sent after it, so
      // the retransmission had its chance and died. Pure elapsed time is
      // not evidence — during a blackout this would otherwise resend every
      // rack_timeout() forever, re-arming the RTO each time and never
      // engaging the exponential backoff ladder.
      if (rack_delivered_ts_ > seg.sent_at && sim_.now() - seg.sent_at > rack_timeout()) {
        seg.retransmitted = false;
        seg.lost = true;
        ++lost_not_rtx_;
        newly_lost = true;
        MPS_TRACE_EVENT(sim_, EventType::kLossMark, config_.conn_id, id_,
                        {"seq", seq}, {"rule", "rack"});
      }
      continue;
    }
    seg.lost = true;
    ++lost_not_rtx_;
    newly_lost = true;
    MPS_TRACE_EVENT(sim_, EventType::kLossMark, config_.conn_id, id_,
                    {"seq", seq}, {"rule", "fack"});
  }
  if (newly_lost && !in_recovery_) enter_fast_recovery();
  arm_rack_timer();
}

void Subflow::arm_rack_timer() {
  // Find the earliest outstanding retransmission below the FACK point; when
  // the ack clock dies (everything in flight), the timer re-detects its loss.
  TimePoint earliest = TimePoint::never();
  const std::uint64_t dupack_threshold = config_.dupack_threshold;
  for (std::uint64_t seq = inflight_.lo(); seq != inflight_.hi(); ++seq) {
    if (seq + dupack_threshold > sack_high_) break;
    const SentSeg& seg = inflight_[seq];
    if (seg.lost || seg.sacked || !seg.retransmitted) continue;
    // No delivery evidence since this retransmission -> the RTO owns it; a
    // later ack re-runs update_loss_marks() and re-evaluates this timer.
    if (rack_delivered_ts_ <= seg.sent_at) continue;
    earliest = std::min(earliest, seg.sent_at);
  }
  if (earliest.is_never()) {
    rack_timer_.cancel();
    return;
  }
  const TimePoint deadline = earliest + rack_timeout() + Duration::millis(1);
  rack_timer_.schedule_at(std::max(deadline, sim_.now() + Duration::millis(1)), [this] {
    update_loss_marks();
    pump_retransmissions();
  });
}

void Subflow::enter_fast_recovery() {
  in_recovery_ = true;
  recover_point_ = next_seq_;  // recovery ends once everything sent so far acks
  {
    MPS_PROF_SCOPE(kCcUpdate);
    cc().on_loss_event(make_ctx());
  }
  MPS_TRACE_EVENT(sim_, EventType::kFastRecovery, config_.conn_id, id_,
                  {"cwnd", cwnd_}, {"recover_point", recover_point_});
  ssthresh_ = std::max(cwnd_ * cc().loss_factor(), config_.min_cwnd);
  set_cwnd(ssthresh_);
  inter_loss_bytes_ = 0.0;
  // Reset explicitly: set_cwnd() above may have been a no-op (cwnd already
  // at the target), yet inter_loss_bytes_ changed.
  if (env_ != nullptr) env_->on_cc_input_change();
  ++stats_.fast_retransmits;
  obs_->fast_recoveries.inc();
}

void Subflow::pump_retransmissions() {
  if (lost_not_rtx_ == 0) return;
  for (std::uint64_t seq = inflight_.lo(); seq != inflight_.hi(); ++seq) {
    if (pipe() >= static_cast<std::size_t>(std::max(cwnd_, 1.0))) break;
    SentSeg& seg = inflight_[seq];
    if (!seg.lost || seg.retransmitted) continue;
    retransmit(seq, seg);
    if (lost_not_rtx_ == 0) break;
  }
  // Fresh retransmissions need RACK coverage in case they are lost too and
  // the ack clock dies.
  arm_rack_timer();
}

void Subflow::retransmit(std::uint64_t seq, SentSeg& seg) {
  Packet pkt;
  pkt.conn_id = config_.conn_id;
  pkt.subflow_id = id_;
  pkt.subflow_seq = seq;
  pkt.data_seq = seg.data_seq;
  pkt.payload = seg.payload;
  pkt.ts_val = sim_.now();
  pkt.retransmit = true;
  pkt.transmit_seq = transmit_counter_++;

  assert(seg.lost && !seg.retransmitted);
  seg.lost = false;  // presumed repaired; RACK re-marks if the rtx dies too
  seg.retransmitted = true;
  seg.sent_at = sim_.now();
  --lost_not_rtx_;
  path_.down().send(pkt);
  last_send_time_ = sim_.now();
  ++stats_.retransmits;
  obs_->retransmits.inc();
  MPS_TRACE_EVENT(sim_, EventType::kPktRetransmit, config_.conn_id, id_,
                  {"seq", seq}, {"dseq", seg.data_seq}, {"len", seg.payload});
  arm_rto();
}

void Subflow::arm_rto() {
  const Duration timeout = rto() * (std::int64_t{1} << std::min(rto_backoff_, 6));
  rto_timer_.schedule_after(timeout, [this] { on_rto_fire(); });
}

void Subflow::on_rto_fire() {
  if (inflight_.empty()) return;
  ++stats_.rto_events;
  ++stats_.iw_resets;  // back into slow start from a minimal window
  obs_->rtos.inc();
  MPS_TRACE_EVENT(sim_, EventType::kRtoFire, config_.conn_id, id_,
                  {"backoff", rto_backoff_}, {"cwnd", cwnd_},
                  {"inflight", static_cast<std::uint64_t>(inflight_.size())});
  {
    MPS_PROF_SCOPE(kCcUpdate);
    cc().on_rto(make_ctx());
  }
  ssthresh_ = std::max(cwnd_ / 2.0, config_.min_cwnd);
  set_cwnd(config_.min_cwnd);
  in_recovery_ = false;
  dupacks_ = 0;
  inter_loss_bytes_ = 0.0;
  if (env_ != nullptr) env_->on_cc_input_change();  // see enter_fast_recovery
  ++rto_backoff_;

  // Everything outstanding that the receiver has not SACKed is presumed
  // lost and must be resent.
  lost_not_rtx_ = 0;
  for (std::uint64_t seq = inflight_.lo(); seq != inflight_.hi(); ++seq) {
    SentSeg& seg = inflight_[seq];
    if (seg.sacked) {
      seg.lost = false;
      continue;
    }
    seg.lost = true;
    seg.retransmitted = false;
    ++lost_not_rtx_;
  }
  pump_retransmissions();
  // The pump is pipe-gated and skips SACKed segments; whatever it managed to
  // send, data is still outstanding, so this timer must never go quiet with
  // a nonempty flight (invariant: rto-liveness).
  if (!inflight_.empty() && !rto_timer_.pending()) arm_rto();
  if (env_ != nullptr) env_->on_subflow_ack(*this);
}

// ---------------------------------------------------------------------------
// SubflowReceiver

SubflowReceiver::SubflowReceiver(Simulator& sim, std::uint32_t conn_id,
                                 std::uint32_t subflow_id, Path& path, MetaSink* sink)
    : sim_(sim), conn_id_(conn_id), subflow_id_(subflow_id), path_(path), sink_(sink) {}

SubflowReceiver::SubflowReceiver(const SubflowReceiver& src, Simulator& sim, Path& path,
                                 MetaSink* sink)
    : sim_(sim),
      conn_id_(src.conn_id_),
      subflow_id_(src.subflow_id_),
      path_(path),
      sink_(sink),
      rcv_next_(src.rcv_next_),
      rcv_high_(src.rcv_high_),
      ooo_(src.ooo_) {}

void SubflowReceiver::on_data_packet(const Packet& pkt) {
  assert(!pkt.is_ack);
  const TimePoint now = sim_.now();
  sink_->on_wire_arrival(subflow_id_, pkt.data_seq, pkt.payload, now);
  rcv_high_ = std::max(rcv_high_, pkt.subflow_seq + 1);

  if (pkt.subflow_seq == rcv_next_) {
    ++rcv_next_;
    sink_->on_subflow_deliver(subflow_id_, pkt.data_seq, pkt.payload, now);
    // Drain any contiguous held segments.
    while (const Held* h = ooo_.find(rcv_next_)) {
      const Held held = *h;
      ooo_.erase(rcv_next_);
      ++rcv_next_;
      sink_->on_subflow_deliver(subflow_id_, held.data_seq, held.payload, held.arrival);
    }
  } else if (pkt.subflow_seq > rcv_next_) {
    ooo_.insert(pkt.subflow_seq, Held{pkt.data_seq, now, pkt.payload});
  }
  // else: duplicate of an already-delivered segment; ack it again below.

  send_ack(pkt);
}

void SubflowReceiver::send_ack(const Packet& trigger) {
  Packet ack;
  ack.conn_id = conn_id_;
  ack.subflow_id = subflow_id_;
  ack.is_ack = true;
  ack.ack_seq = rcv_next_;
  ack.sack_high = rcv_high_;

  // SACK blocks: contiguous runs of out-of-order segments, lowest first.
  std::uint64_t run = ooo_.min_key();
  while (run != SeqWindow<Held>::kNone && ack.n_sack < Packet::kMaxSackBlocks) {
    const std::uint64_t lo = run;
    std::uint64_t hi = lo + 1;
    while (ooo_.contains(hi)) ++hi;
    ack.sack_lo[ack.n_sack] = lo;
    ack.sack_hi[ack.n_sack] = hi;
    ++ack.n_sack;
    run = ooo_.first_at_or_after(hi + 1);
  }
  ack.data_ack = sink_->meta_data_ack();
  ack.rwnd = sink_->meta_rwnd();
  ack.ts_val = trigger.ts_val;
  ack.ts_retransmit = trigger.retransmit;
  path_.up().send(ack);
}

}  // namespace mps
