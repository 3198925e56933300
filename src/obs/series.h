// Time series of (time, value) points: a gauge's history in the metrics
// registry (CWND, paper Figs. 11/12) and a streaming run's send-buffer
// occupancy (paper Fig. 3).
#pragma once

#include <algorithm>
#include <vector>

#include "util/time.h"

namespace mps {

struct TimeSeriesPoint {
  TimePoint t;
  double value;
};

class TimeSeries {
 public:
  void add(TimePoint t, double value) { points_.push_back({t, value}); }

  const std::vector<TimeSeriesPoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }

  double max_value() const {
    double m = 0.0;
    for (const auto& p : points_) m = std::max(m, p.value);
    return m;
  }

  // Time-weighted mean over [from, to], step interpolation.
  double time_mean(TimePoint from, TimePoint to) const {
    if (to <= from || points_.empty()) return 0.0;
    double area = 0.0;
    double current = 0.0;
    TimePoint cursor = from;
    for (const auto& p : points_) {
      if (p.t <= from) {
        current = p.value;
        continue;
      }
      if (p.t >= to) break;
      area += current * (p.t - cursor).to_seconds();
      cursor = p.t;
      current = p.value;
    }
    area += current * (to - cursor).to_seconds();
    return area / (to - from).to_seconds();
  }

 private:
  std::vector<TimeSeriesPoint> points_;
};

}  // namespace mps
