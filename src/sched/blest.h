// BLEST — BLocking ESTimation-based scheduler (Ferlin, Alay, Mehani, Boreli,
// IFIP Networking 2016).
//
// When the fast subflow is CWND-limited, BLEST estimates whether occupying
// the meta send window with a segment on the slow subflow would block the
// fast subflow once it frees up: during one slow-path RTT the fast path
// could send roughly
//
//   X = rtt_s / rtt_f rounds,  sent_f = X * (CWND_f + (X - 1) / 2) * MSS
//
// bytes (CWND_f grows by one per round in congestion avoidance). If
// lambda * sent_f exceeds the free meta send-window space left after the
// slow transmission, BLEST skips the slow subflow and waits. lambda is
// adapted: scaled up whenever blocking happened anyway, decayed back toward
// one otherwise.
//
// Contrast with ECF (paper Section 5): the decision is driven by send-window
// *space*, not by the amount of data waiting in the send buffer, so BLEST
// keeps using the slow path when the window is large even if that leaves the
// fast path idle between application bursts.
#pragma once

#include "core/scheduler_util.h"
#include "mptcp/scheduler.h"

namespace mps {

// The pure blocking estimate, exposed for direct testing: true when sending
// one more segment on the slow subflow risks starving the fast one of meta
// send-window space during the slow RTT.
bool blest_would_block(double lambda, double cwnd_f, double rtt_f_s, double rtt_s_s,
                       double mss, double window_bytes, double meta_inflight_bytes,
                       double slow_inflight_bytes);

struct BlestConfig {
  double lambda_initial = 1.0;
  double lambda_step = 0.05;   // multiplicative adaptation per event
  double lambda_min = 1.0;
  double lambda_max = 3.0;
};

class BlestScheduler final : public Scheduler, public ArenaAllocated<BlestScheduler> {
 public:
  explicit BlestScheduler(BlestConfig config = {})
      : config_(config), lambda_(config.lambda_initial) {}

  Subflow* pick(Connection& conn) override;
  const char* name() const override { return "blest"; }
  void reset() override {
    lambda_ = config_.lambda_initial;
    last_stalls_ = 0;
  }

  double lambda() const { return lambda_; }

  void restore_from(const Scheduler& src) override {
    Scheduler::restore_from(src);
    const auto& other = static_cast<const BlestScheduler&>(src);
    lambda_ = other.lambda_;
    last_stalls_ = other.last_stalls_;
  }

 private:
  BlestConfig config_;
  double lambda_;
  std::uint64_t last_stalls_ = 0;
};

}  // namespace mps
