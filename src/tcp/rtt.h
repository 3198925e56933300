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

// The RTO clamps live in an RttConfig the caller passes to rto(): a
// subflow reads its connection's one copy instead of holding its own.
class RttEstimator {
 public:
  void add_sample(Duration rtt);

  bool has_sample() const { return lifetime_.count() > 0; }

  // Smoothed RTT; zero until the first sample.
  Duration srtt() const { return srtt_; }
  Duration rttvar() const { return rttvar_; }
  Duration min_rtt() const { return min_rtt_; }

  // Standard deviation over the recent sample window (ECF's sigma).
  Duration stddev() const { return Duration::from_seconds(window_.stddev()); }

  // Sample count and mean RTT in seconds over all samples (testbed Table 2
  // reporting).
  const RunningMean& lifetime() const { return lifetime_; }

  // Retransmission timeout: srtt + 4 * rttvar, clamped by `config`.
  Duration rto(const RttConfig& config = RttConfig{}) const;

 private:
  Duration srtt_ = Duration::zero();
  Duration rttvar_ = Duration::zero();
  Duration min_rtt_ = Duration::infinite();
  WindowedStats window_;  // the last 16 samples feed ECF's sigma
  RunningMean lifetime_;  // its count() is the number of samples taken
};

}  // namespace mps
