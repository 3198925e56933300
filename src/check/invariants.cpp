#include "check/invariants.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <sstream>

#include "obs/recorder.h"

namespace mps {

namespace {

std::string fmt(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return std::string(buf);
}

}  // namespace

InvariantChecker::InvariantChecker(Simulator& sim) : sim_(sim) {
  recorder_ = sim_.recorder();
  if (recorder_ != nullptr) {
    next_ = recorder_->event_sink();
    recorder_->set_event_sink(this);
  }
}

InvariantChecker::~InvariantChecker() {
  if (recorder_ != nullptr && recorder_->event_sink() == this) {
    recorder_->set_event_sink(next_);
  }
}

void InvariantChecker::watch(Connection& conn) {
  ConnWatch w;
  w.conn = &conn;
  w.last_rcv_data_next = conn.rcv_data_next();
  w.last_data_una = conn.data_una();
  w.last_next_data_seq = conn.next_data_seq();
  // Watches are keyed by slot id, not by position in the live list: slot ids
  // are stable under mid-connection churn (mptcp/path_manager.h), while the
  // live list compacts when a subflow is finalized.
  w.subflows.resize(conn.slot_count());
  for (std::size_t slot = 0; slot < conn.slot_count(); ++slot) {
    const Subflow* sf = conn.subflow_at(slot);
    if (sf == nullptr) continue;
    w.subflows[slot].last_snd_una = sf->snd_una();
    w.subflows[slot].last_sack_high = sf->sack_high();
  }
  watched_.push_back(w);
}

void InvariantChecker::unwatch(Connection& conn) {
  for (auto it = watched_.begin(); it != watched_.end(); ++it) {
    if (it->conn == &conn) {
      watched_.erase(it);
      return;
    }
  }
}

void InvariantChecker::violation(const char* invariant, std::string detail) {
  if (violations_.size() >= kMaxViolations) return;
  violations_.push_back(Violation{sim_.now(), invariant, std::move(detail)});
}

std::string InvariantChecker::report(std::size_t max_lines) const {
  std::ostringstream os;
  os << violations_.size() << " invariant violation(s), " << checks_run_ << " checks run\n";
  std::size_t n = 0;
  for (const Violation& v : violations_) {
    if (n++ >= max_lines) {
      os << "  ... (" << violations_.size() - max_lines << " more)\n";
      break;
    }
    os << "  t=" << v.t.str() << " [" << v.invariant << "] " << v.detail << "\n";
  }
  return os.str();
}

void InvariantChecker::on_event(TimePoint t, EventType type, std::int64_t conn,
                                std::int64_t subflow, const EventField* fields,
                                std::size_t n_fields) {
  if (next_ != nullptr) next_->on_event(t, type, conn, subflow, fields, n_fields);
  check_all(event_type_name(type), /*settled=*/false);
  schedule_settled_check();
}

void InvariantChecker::schedule_settled_check() {
  if (settled_post_pending_) return;
  settled_post_pending_ = true;
  sim_.post([this] {
    settled_post_pending_ = false;
    check_all("settled", /*settled=*/true);
  });
}

void InvariantChecker::check_now(const char* context) {
  check_all(context, /*settled=*/true);
}

void InvariantChecker::check_all(const char* context, bool settled) {
  ++checks_run_;
  for (ConnWatch& w : watched_) check_connection(w, context, settled);
}

void InvariantChecker::check_connection(ConnWatch& w, const char* context, bool settled) {
  Connection& c = *w.conn;

  // --- monotonicity + ordering of the meta sequence counters ----------------
  if (c.rcv_data_next() < w.last_rcv_data_next) {
    violation("monotonicity", fmt("rcv_data_next moved back %llu -> %llu (%s)",
                                  (unsigned long long)w.last_rcv_data_next,
                                  (unsigned long long)c.rcv_data_next(), context));
  }
  if (c.data_una() < w.last_data_una) {
    violation("monotonicity",
              fmt("data_una moved back %llu -> %llu (%s)", (unsigned long long)w.last_data_una,
                  (unsigned long long)c.data_una(), context));
  }
  if (c.next_data_seq() < w.last_next_data_seq) {
    violation("monotonicity", fmt("next_data_seq moved back %llu -> %llu (%s)",
                                  (unsigned long long)w.last_next_data_seq,
                                  (unsigned long long)c.next_data_seq(), context));
  }
  w.last_rcv_data_next = c.rcv_data_next();
  w.last_data_una = c.data_una();
  w.last_next_data_seq = c.next_data_seq();

  if (c.data_una() > c.rcv_data_next() || c.rcv_data_next() > c.next_data_seq()) {
    violation("monotonicity",
              fmt("ordering broken: data_una=%llu rcv_data_next=%llu next_data_seq=%llu (%s)",
                  (unsigned long long)c.data_una(), (unsigned long long)c.rcv_data_next(),
                  (unsigned long long)c.next_data_seq(), context));
  }

  // --- exactly-once in-order delivery ---------------------------------------
  if (c.delivered_bytes() != c.rcv_data_next()) {
    violation("exactly-once",
              fmt("delivered_bytes=%llu != rcv_data_next=%llu (%s)",
                  (unsigned long long)c.delivered_bytes(),
                  (unsigned long long)c.rcv_data_next(), context));
  }

  // --- meta reorder-buffer accounting ---------------------------------------
  {
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& held = held_scratch_;
    held.clear();
    c.collect_ooo_ranges(held);
    std::uint64_t recount = 0;
    for (const auto& [lo, hi] : held) recount += hi - lo;
    if (recount != c.meta_ooo_bytes()) {
      violation("meta-ooo", fmt("meta_ooo_bytes=%llu but map holds %llu bytes in %zu segs (%s)",
                                (unsigned long long)c.meta_ooo_bytes(),
                                (unsigned long long)recount, held.size(), context));
    }
    if (!held.empty() && held.front().first <= c.rcv_data_next()) {
      violation("meta-ooo",
                fmt("held segment at %llu not above rcv_data_next=%llu (%s)",
                    (unsigned long long)held.front().first,
                    (unsigned long long)c.rcv_data_next(), context));
    }
  }

  // --- per-subflow sender scoreboard + cwnd sanity --------------------------
  // Slots added after watch() started (path-manager adds) get a fresh watch
  // seeded from the subflow's current counters; finalized slots are null and
  // skipped — their watch entry stays behind as a tombstone so later slots
  // keep their index.
  if (w.subflows.size() < c.slot_count()) {
    const std::size_t old = w.subflows.size();
    w.subflows.resize(c.slot_count());
    for (std::size_t slot = old; slot < c.slot_count(); ++slot) {
      const Subflow* nsf = c.subflow_at(slot);
      if (nsf == nullptr) continue;
      w.subflows[slot].last_snd_una = nsf->snd_una();
      w.subflows[slot].last_sack_high = nsf->sack_high();
    }
  }
  for (std::size_t i = 0; i < c.slot_count(); ++i) {
    if (c.subflow_at(i) == nullptr) continue;
    const Subflow& sf = *c.subflow_at(i);
    SubflowWatch& sw = w.subflows[i];

    if (sf.snd_una() < sw.last_snd_una) {
      violation("monotonicity",
                fmt("sf%zu snd_una moved back %llu -> %llu (%s)", i,
                    (unsigned long long)sw.last_snd_una, (unsigned long long)sf.snd_una(),
                    context));
    }
    if (sf.sack_high() < sw.last_sack_high) {
      violation("monotonicity",
                fmt("sf%zu sack_high moved back %llu -> %llu (%s)", i,
                    (unsigned long long)sw.last_sack_high,
                    (unsigned long long)sf.sack_high(), context));
    }
    sw.last_snd_una = sf.snd_una();
    sw.last_sack_high = sf.sack_high();

    if (sf.snd_una() > sf.next_seq()) {
      violation("scoreboard", fmt("sf%zu snd_una=%llu > next_seq=%llu (%s)", i,
                                  (unsigned long long)sf.snd_una(),
                                  (unsigned long long)sf.next_seq(), context));
    }

    std::size_t lost = 0, sacked = 0, both = 0;
    if (!sf.inflight().empty() && sf.inflight().lo() < sf.snd_una()) {
      violation("scoreboard", fmt("sf%zu inflight seq %llu below snd_una=%llu (%s)", i,
                                  (unsigned long long)sf.inflight().lo(),
                                  (unsigned long long)sf.snd_una(), context));
    }
    for (std::uint64_t seq = sf.inflight().lo(); seq != sf.inflight().hi(); ++seq) {
      const SentSeg& seg = sf.inflight()[seq];
      if (seg.lost && !seg.retransmitted) ++lost;
      if (seg.sacked) ++sacked;
      if (seg.lost && seg.sacked) ++both;
    }
    if (lost != sf.lost_not_rtx() || sacked != sf.sacked_count()) {
      violation("scoreboard",
                fmt("sf%zu counters lost=%zu/%zu sacked=%zu/%zu (counter/recount) (%s)", i,
                    sf.lost_not_rtx(), lost, sf.sacked_count(), sacked, context));
    }
    if (both != 0) {
      violation("scoreboard",
                fmt("sf%zu has %zu segments both lost and sacked (%s)", i, both, context));
    }
    if (sf.lost_not_rtx() + sf.sacked_count() > sf.inflight().size()) {
      violation("scoreboard",
                fmt("sf%zu pipe underflow: inflight=%zu lost=%zu sacked=%zu (%s)", i,
                    sf.inflight().size(), sf.lost_not_rtx(), sf.sacked_count(), context));
    }

    const double cwnd = sf.cwnd(), ssthresh = sf.ssthresh();
    if (!std::isfinite(cwnd) || cwnd < sf.min_cwnd() || cwnd > 1e9) {
      violation("cwnd-sanity", fmt("sf%zu cwnd=%g out of range (%s)", i, cwnd, context));
    }
    if (!std::isfinite(ssthresh) || ssthresh < sf.min_cwnd()) {
      violation("cwnd-sanity", fmt("sf%zu ssthresh=%g out of range (%s)", i, ssthresh, context));
    }

    // --- RTO / RACK timer liveness (settled only: mid-event the timer may
    // legitimately lag the scoreboard it covers) ------------------------------
    if (settled) {
      const bool outstanding = !sf.inflight().empty();
      if (sf.rto_pending() != outstanding) {
        violation("rto-liveness",
                  fmt("sf%zu rto_pending=%d but inflight=%zu (%s)", i, sf.rto_pending() ? 1 : 0,
                      sf.inflight().size(), context));
      }
      if (sf.rack_pending() && !outstanding) {
        violation("rto-liveness", fmt("sf%zu rack timer pending with empty inflight (%s)", i,
                                      context));
      }
    }

    // --- per-subflow receiver ordering ----------------------------------------
    if (c.receiver_at(i) != nullptr) {
      const SubflowReceiver& rx = *c.receiver_at(i);
      if (rx.ooo_min_seq() != UINT64_MAX && rx.ooo_min_seq() <= rx.rcv_next()) {
        violation("rcv-order", fmt("sf%zu receiver holds seq %llu <= rcv_next=%llu (%s)", i,
                                   (unsigned long long)rx.ooo_min_seq(),
                                   (unsigned long long)rx.rcv_next(), context));
      }
      if (rx.rcv_high() < rx.rcv_next()) {
        violation("rcv-order", fmt("sf%zu rcv_high=%llu < rcv_next=%llu (%s)", i,
                                   (unsigned long long)rx.rcv_high(),
                                   (unsigned long long)rx.rcv_next(), context));
      }
    }
  }

  // --- coupled-CC shared-term cache consistency ------------------------------
  // Recompute the cross-subflow aggregates from scratch and require exact
  // equality with the connection's cached CoupledCcTerms. The cached read
  // itself refreshes when marked dirty, so a mismatch can only mean a stale
  // cache served (or would have served) a coupled controller: some input
  // changed without on_cc_input_change() firing. Exact (bitwise) double
  // comparison is intentional — cached and fresh values come from the same
  // deterministic computation over the same snapshot.
  {
    terms_scratch_.siblings.clear();
    c.cc_sibling_info(terms_scratch_.siblings);
    terms_scratch_.recompute();
    const CoupledCcTerms& cached = c.coupled_terms();
    bool same = cached.siblings.size() == terms_scratch_.siblings.size() &&
                cached.olia_flags == terms_scratch_.olia_flags &&
                cached.lia_total_cwnd == terms_scratch_.lia_total_cwnd &&
                cached.lia_best_ratio == terms_scratch_.lia_best_ratio &&
                cached.lia_sum_cwnd_over_rtt == terms_scratch_.lia_sum_cwnd_over_rtt &&
                cached.olia_n == terms_scratch_.olia_n &&
                cached.olia_sum_cwnd_over_rtt == terms_scratch_.olia_sum_cwnd_over_rtt &&
                cached.olia_best_quality == terms_scratch_.olia_best_quality &&
                cached.olia_max_cwnd == terms_scratch_.olia_max_cwnd &&
                cached.olia_b_minus_m == terms_scratch_.olia_b_minus_m &&
                cached.olia_m_count == terms_scratch_.olia_m_count &&
                cached.balia_sum_x == terms_scratch_.balia_sum_x &&
                cached.balia_max_x == terms_scratch_.balia_max_x;
    if (same) {
      for (std::size_t i = 0; i < cached.siblings.size(); ++i) {
        const CcSiblingInfo& a = cached.siblings[i];
        const CcSiblingInfo& b = terms_scratch_.siblings[i];
        if (a.subflow_id != b.subflow_id || a.cwnd != b.cwnd || a.srtt_s != b.srtt_s ||
            a.established != b.established || a.inter_loss_bytes != b.inter_loss_bytes) {
          same = false;
          break;
        }
      }
    }
    if (!same) {
      violation("coupled-terms",
                fmt("cached CcTerms stale: lia_total=%g/%g lia_sum=%g/%g olia_n=%d/%d "
                    "balia_sum_x=%g/%g (cached/fresh, %zu/%zu siblings) (%s)",
                    cached.lia_total_cwnd, terms_scratch_.lia_total_cwnd,
                    cached.lia_sum_cwnd_over_rtt, terms_scratch_.lia_sum_cwnd_over_rtt,
                    cached.olia_n, terms_scratch_.olia_n, cached.balia_sum_x,
                    terms_scratch_.balia_sum_x, cached.siblings.size(),
                    terms_scratch_.siblings.size(), context));
    }
  }

  check_conservation(w, context);
}

void InvariantChecker::check_conservation(const ConnWatch& w, const char* context) {
  Connection& c = *w.conn;
  const std::uint64_t lo = c.rcv_data_next();
  const std::uint64_t hi = c.next_data_seq();
  if (lo >= hi) return;

  // Every byte the sender has scheduled but the receiver has not yet
  // delivered in order must still exist somewhere: as a sender-side copy
  // (in flight or staged on some subflow) or held in the meta reorder
  // buffer. A gap means bytes were dropped irrecoverably — the transfer can
  // never complete.
  std::vector<std::pair<std::uint64_t, std::uint64_t>>& ranges = ranges_scratch_;
  ranges.clear();
  c.collect_ooo_ranges(ranges);
  for (Subflow* sf : c.subflows()) sf->collect_data_ranges(ranges);
  // Ranges abandoned by a torn-down subflow live in the connection's remap
  // queue until a surviving subflow re-schedules them — they count as a
  // sender-side copy, else every abandon teardown would report vanished bytes.
  c.collect_remap_ranges(ranges);
  std::sort(ranges.begin(), ranges.end());

  std::uint64_t covered_to = lo;
  for (const auto& [start, end] : ranges) {
    if (end <= covered_to) continue;
    if (start > covered_to) break;  // gap at covered_to
    covered_to = end;
    if (covered_to >= hi) break;
  }
  if (covered_to < hi) {
    violation("conservation",
              fmt("bytes [%llu, %llu) not covered by any sender/receiver copy "
                  "(window [%llu, %llu), %zu ranges) (%s)",
                  (unsigned long long)covered_to, (unsigned long long)hi,
                  (unsigned long long)lo, (unsigned long long)hi, ranges.size(), context));
  }
}

}  // namespace mps
