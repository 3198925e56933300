// CUBIC (RFC 8312) congestion avoidance.
//
// The canonical formulation computes a target window W(t) from the time
// since the last loss event; we convert it to a per-ack increase
// (W_target - cwnd) / cwnd, matching the Linux `cnt` pacing approach.
#pragma once

#include <algorithm>
#include <cmath>

#include "tcp/cc.h"

namespace mps {

class CubicCc final : public CongestionController {
 public:
  double ca_increase(const AckContext& ctx) override {
    if (epoch_start_.is_never()) {
      epoch_start_ = ctx.now;
      if (w_max_ < ctx.cwnd) w_max_ = ctx.cwnd;
      k_ = std::cbrt(w_max_ * (1.0 - kBeta) / kC);
      origin_ = w_max_;
    }
    const double t = (ctx.now - epoch_start_).to_seconds() + ctx.srtt_s;
    const double w_cubic = kC * std::pow(t - k_, 3.0) + origin_;
    // TCP-friendly region (RFC 8312 4.2).
    const double w_est = origin_ * kBeta +
                         (3.0 * (1.0 - kBeta) / (1.0 + kBeta)) *
                             (ctx.srtt_s > 0 ? t / ctx.srtt_s : 0.0);
    const double target = std::max(w_cubic, w_est);
    if (target <= ctx.cwnd) return 0.01 / ctx.cwnd;  // minimal growth
    const double inc = (target - ctx.cwnd) / ctx.cwnd;
    return std::min(inc, 0.5);  // cap per-ack growth as Linux does
  }

  double loss_factor() const override { return kBeta; }

  void on_loss_event(const AckContext& ctx) override {
    // Fast convergence (RFC 8312 4.6).
    w_max_ = ctx.cwnd < w_max_ ? ctx.cwnd * (2.0 - kBeta) / 2.0 : ctx.cwnd;
    epoch_start_ = TimePoint::never();
  }

  void on_rto(const AckContext&) override { epoch_start_ = TimePoint::never(); }

  void reset() override {
    w_max_ = 0.0;
    epoch_start_ = TimePoint::never();
    k_ = 0.0;
    origin_ = 0.0;
  }

  const char* name() const override { return "cubic"; }

 private:
  static constexpr double kC = 0.4;
  static constexpr double kBeta = 0.7;

  double w_max_ = 0.0;
  TimePoint epoch_start_ = TimePoint::never();
  double k_ = 0.0;
  double origin_ = 0.0;
};

}  // namespace mps
