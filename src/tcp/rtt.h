// RTT estimation per RFC 6298 (SRTT/RTTVAR, RTO computation) plus a
// windowed standard deviation of recent samples.
//
// The windowed stddev is what ECF uses for its variability margin
// delta = max(sigma_f, sigma_s); the kernel implementation derives it from
// the same RTT samples feeding SRTT.
#pragma once

#include "util/stats.h"
#include "util/time.h"

namespace mps {

struct RttConfig {
  Duration min_rto = Duration::millis(200);  // Linux TCP_RTO_MIN
  Duration max_rto = Duration::seconds(60);
  Duration initial_rto = Duration::seconds(1);
};

class RttEstimator {
 public:
  explicit RttEstimator(RttConfig config = {}) : config_(config) {}

  void add_sample(Duration rtt);

  bool has_sample() const { return n_samples_ > 0; }
  std::size_t sample_count() const { return n_samples_; }

  // Smoothed RTT; zero until the first sample.
  Duration srtt() const { return srtt_; }
  Duration rttvar() const { return rttvar_; }
  Duration min_rtt() const { return min_rtt_; }
  Duration last_rtt() const { return last_; }

  // Standard deviation over the recent sample window (ECF's sigma).
  Duration stddev() const { return Duration::from_seconds(window_.stddev()); }

  // Lifetime statistics over all samples (testbed Table 2 reporting).
  const RunningStats& lifetime() const { return lifetime_; }

  // Retransmission timeout: srtt + 4 * rttvar, clamped.
  Duration rto() const;

  void reset() { *this = RttEstimator{config_}; }

 private:
  RttConfig config_;
  Duration srtt_ = Duration::zero();
  Duration rttvar_ = Duration::zero();
  Duration min_rtt_ = Duration::infinite();
  Duration last_ = Duration::zero();
  std::size_t n_samples_ = 0;
  WindowedStats window_;  // the last 16 samples feed ECF's sigma
  RunningStats lifetime_;
};

}  // namespace mps
