// ECF — Earliest Completion First (the paper's contribution, Algorithm 1).
//
// When the fastest subflow x_f is CWND-limited and the default scheduler
// would fall back to a slower subflow x_s, ECF asks whether waiting for x_f
// finishes the k pending packets sooner than using x_s now:
//
//   (1 + k / CWND_f) * RTT_f  <  (1 + waiting * beta) * (RTT_s + delta)
//
// with delta = max(sigma_f, sigma_s) absorbing RTT/CWND variability, and a
// second guard that x_s really would not complete first:
//
//   (k / CWND_s) * RTT_s  >=  2 * RTT_f + delta.
//
// If both hold, ECF returns no subflow (waits for x_f) and sets the
// `waiting` hysteresis bit; the beta term then keeps the decision sticky
// until the inequality clearly flips, preventing rapid oscillation.
#pragma once

#include "core/scheduler_util.h"
#include "mptcp/scheduler.h"

namespace mps {

struct EcfConfig {
  // Hysteresis factor; the paper sets 0.25 throughout its evaluation and
  // reports other values behave similarly.
  double beta = 0.25;
};

// Estimated RTT-rounds to transfer k packets starting from `cwnd`,
// accounting for slow-start doubling up to `ssthresh` and +1/round beyond.
// With cwnd >= ssthresh (congestion avoidance) this reduces to ~k / cwnd,
// the paper's Algorithm 1 term. The paper notes its CA assumption "can
// cause incorrect estimations ... during the slow-start phase"; in the
// ON-OFF streaming pattern the fast subflow restarts from the initial
// window at every chunk, so the projection matters and we model it.
double ecf_transfer_rounds(double k_packets, double cwnd, double ssthresh);

// The pure decision at the heart of Algorithm 1, exposed for direct testing.
// Inputs are the quantities the scheduler reads from the stack; `waiting` is
// the hysteresis state, which the caller updates from the returned decision.
enum class EcfDecision {
  kUseSlow,          // backlog large: using x_s shortens completion; clear `waiting`
  kUseSlowSmallK,    // waiting favoured but x_s would finish first anyway; keep `waiting`
  kWait,             // decline x_s and wait for x_f; set `waiting`
};
// `staged_f`/`staged_s` are the segments already committed to each subflow's
// send queue but not yet transmitted: they drain ahead of any new assignment
// and therefore extend both completion estimates. (In the kernel, segments
// are only handed over against CWND space, so this term is zero there; the
// 0.89-style send queues this library models make it material.)
EcfDecision ecf_decide(double k_packets, double cwnd_f, double ssthresh_f, double cwnd_s,
                       double ssthresh_s, double rtt_f_s, double rtt_s_s, double delta_s,
                       bool waiting, double beta, double staged_f = 0.0, double staged_s = 0.0);

class EcfScheduler final : public Scheduler, public ArenaAllocated<EcfScheduler> {
 public:
  explicit EcfScheduler(EcfConfig config = {}) : config_(config) {}

  Subflow* pick(Connection& conn) override;
  const char* name() const override { return "ecf"; }
  void reset() override {
    waiting_ = false;
    waiting_for_ = kNoSubflow;
  }

  bool waiting() const { return waiting_; }
  // Id of the fast subflow the armed hysteresis waits for; kNoSubflow when
  // not waiting.
  static constexpr std::uint32_t kNoSubflow = UINT32_MAX;
  std::uint32_t waiting_for() const { return waiting_for_; }

  // The beta bonus is an argument about one specific (x_f, x_s) race; when
  // the fast-subflow identity changes — RTT estimates crossing, or the
  // armed subflow leaving in a handover — the stuck bit would hand the
  // bonus to a pair that never earned it. pick() clears it on identity
  // change, and a subflow-set change forces the same re-check.
  void on_subflow_change(Connection& conn) override;

  void restore_from(const Scheduler& src) override {
    Scheduler::restore_from(src);
    waiting_ = static_cast<const EcfScheduler&>(src).waiting_;
    waiting_for_ = static_cast<const EcfScheduler&>(src).waiting_for_;
  }

 private:
  // Outlined Explain record carrying the full Algorithm 1 terms; cold so the
  // per-segment pick() path keeps its uninstrumented cost.
  void note_ecf_decision(EcfDecision decision, const Subflow& xf, const Subflow& xs, double k,
                         double delta, double staged_f, double staged_s, bool was_waiting) const;

  EcfConfig config_;
  bool waiting_ = false;
  std::uint32_t waiting_for_ = kNoSubflow;  // subflow id that armed waiting_
};

}  // namespace mps
