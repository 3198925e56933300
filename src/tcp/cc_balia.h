// BALIA — the Balanced Linked Adaptation algorithm (Peng, Walid, Hwang, Low;
// IEEE/ACM ToN 2016, draft-walid-mptcp-congestion-control), the fourth
// coupled controller beside LIA/OLIA and the one the Linux out-of-tree MPTCP
// stack ships as `balia`. Designed to sit between LIA's friendliness and
// OLIA's responsiveness.
//
// With x_i = cwnd_i / rtt_i (the subflow rates) and, for subflow r,
//   alpha_r = max_i(x_i) / x_r  (>= 1),
// each ack of one segment on r grows the window by
//   cwnd_r += (x_r / rtt_r) / (sum_i x_i)^2
//             * ((1 + alpha_r) / 2) * ((4 + alpha_r) / 5)
// and each loss event on r shrinks it by
//   cwnd_r -= (cwnd_r / 2) * min(alpha_r, 1.5),
// i.e. the remaining fraction is 1 - min(alpha_r, 1.5) / 2 in [0.25, 0.5].
// On a single path (alpha = 1) both rules collapse to Reno's 1/cwnd and a
// plain halving.
//
// The Subflow loss path calls on_loss_event() (where alpha_r is captured
// from the group's shared CoupledCcTerms) before reading loss_factor(), so
// the group-dependent decrement fits the controller interface unchanged.
#pragma once

#include <algorithm>

#include "tcp/cc.h"

namespace mps {

class BaliaCc final : public CongestionController {
 public:
  double ca_increase(const AckContext& ctx) override {
    const double uncoupled = ctx.cwnd > 0.0 ? 1.0 / ctx.cwnd : 1.0;
    if (ctx.group == nullptr) return uncoupled;
    const CoupledCcTerms& t = ctx.group->coupled_terms();
    const double rtt = ctx.srtt_s > 0.0 ? ctx.srtt_s : 1e-3;
    const double x_r = ctx.cwnd / rtt;
    if (t.balia_sum_x <= 0.0 || x_r <= 0.0) return uncoupled;
    const double alpha = std::max(1.0, t.balia_max_x / x_r);
    return (x_r / rtt) / (t.balia_sum_x * t.balia_sum_x) * ((1.0 + alpha) / 2.0) *
           ((4.0 + alpha) / 5.0);
  }

  // Capture alpha_r at the loss event; enter_fast_recovery() reads
  // loss_factor() immediately afterwards.
  void on_loss_event(const AckContext& ctx) override {
    alpha_at_loss_ = 1.0;
    if (ctx.group == nullptr) return;
    const CoupledCcTerms& t = ctx.group->coupled_terms();
    const double rtt = ctx.srtt_s > 0.0 ? ctx.srtt_s : 1e-3;
    const double x_r = ctx.cwnd / rtt;
    if (x_r > 0.0 && t.balia_max_x > 0.0) {
      alpha_at_loss_ = std::max(1.0, t.balia_max_x / x_r);
    }
  }

  double loss_factor() const override {
    return 1.0 - std::min(alpha_at_loss_, 1.5) / 2.0;
  }

  void reset() override { alpha_at_loss_ = 1.0; }

  const char* name() const override { return "balia"; }

 private:
  double alpha_at_loss_ = 1.0;  // alpha_r captured by the last loss event
};

}  // namespace mps
