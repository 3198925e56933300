#include "tcp/rtt.h"

#include <algorithm>

namespace mps {

void RttEstimator::add_sample(Duration rtt) {
  if (rtt < Duration::zero()) return;
  min_rtt_ = std::min(min_rtt_, rtt);
  if (lifetime_.count() == 0) {
    // RFC 6298 (2.2): first measurement.
    srtt_ = rtt;
    rttvar_ = rtt / 2;
  } else {
    // RFC 6298 (2.3): alpha = 1/8, beta = 1/4.
    const Duration err = rtt >= srtt_ ? rtt - srtt_ : srtt_ - rtt;
    rttvar_ = Duration::nanos((3 * rttvar_.ns() + err.ns()) / 4);
    srtt_ = Duration::nanos((7 * srtt_.ns() + rtt.ns()) / 8);
  }
  window_.add(rtt.to_seconds());
  lifetime_.add(rtt.to_seconds());
}

Duration RttEstimator::rto(const RttConfig& config) const {
  if (!has_sample()) return config.initial_rto;
  const Duration raw = srtt_ + Duration::nanos(4 * rttvar_.ns());
  return std::clamp(raw, config.min_rto, config.max_rto);
}

}  // namespace mps
