#include "util/stats.h"

#include <cassert>

namespace mps {

void Samples::ensure_sorted() const {
  if (!sorted_) {
    std::sort(data_.begin(), data_.end());
    sorted_ = true;
  }
}

double Samples::min() const {
  if (data_.empty()) return 0.0;
  ensure_sorted();
  return data_.front();
}

double Samples::max() const {
  if (data_.empty()) return 0.0;
  ensure_sorted();
  return data_.back();
}

double Samples::quantile(double q) const {
  if (data_.empty()) return 0.0;
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(data_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, data_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return data_[lo] * (1.0 - frac) + data_[hi] * frac;
}

double Samples::cdf_at(double x) const {
  if (data_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(data_.begin(), data_.end(), x);
  return static_cast<double>(it - data_.begin()) / static_cast<double>(data_.size());
}

}  // namespace mps
