// Statistics helpers: running mean/variance, windowed standard deviation
// (used by ECF's delta term), sample collections with quantile/CDF/CCDF
// views.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mps {

// Welford's online mean/variance.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  void reset() { *this = RunningStats{}; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Count and mean of a stream: RunningStats without the variance and the
// extremes, for the per-subflow lifetime RTT, where only these two are read.
// The mean update is the same Welford step, so mean() is bitwise equal to a
// RunningStats fed the same samples.
class RunningMean {
 public:
  void add(double x) {
    ++n_;
    mean_ += (x - mean_) / static_cast<double>(n_);
  }

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
};

// Mean / standard deviation over the most recent `capacity` samples
// (at most kMaxWindow). ECF uses this for sigma_f / sigma_s (RTT variability
// margin). The buffer is a fixed array held inline, so an RTT estimator
// costs no heap block.
class WindowedStats {
 public:
  static constexpr std::size_t kMaxWindow = 16;

  explicit WindowedStats(std::size_t capacity = kMaxWindow)
      : cap_(static_cast<std::uint8_t>(capacity)) {
    assert(capacity <= kMaxWindow);
  }

  void add(double x) {
    if (cap_ == 0) return;
    if (size_ == cap_) {
      sum_ -= buf_[head_];
      sumsq_ -= buf_[head_] * buf_[head_];
    } else {
      ++size_;
    }
    buf_[head_] = x;
    head_ = static_cast<std::uint8_t>((head_ + 1) % cap_);
    sum_ += x;
    sumsq_ += x * x;
  }

  std::size_t count() const { return size_; }
  bool empty() const { return size_ == 0; }

  double mean() const { return size_ ? sum_ / static_cast<double>(size_) : 0.0; }

  double stddev() const {
    if (size_ < 2) return 0.0;
    const double n = static_cast<double>(size_);
    const double var = (sumsq_ - sum_ * sum_ / n) / (n - 1);
    return var > 0.0 ? std::sqrt(var) : 0.0;
  }

  void reset() {
    size_ = 0;
    head_ = 0;
    sum_ = 0.0;
    sumsq_ = 0.0;
  }

 private:
  std::array<double, kMaxWindow> buf_{};
  double sum_ = 0.0;
  double sumsq_ = 0.0;
  // All three are <= kMaxWindow, so they pack into the tail word.
  std::uint8_t cap_;
  std::uint8_t size_ = 0;
  std::uint8_t head_ = 0;
};

// A bag of samples with quantile / CDF / CCDF views. Sorting is deferred and
// cached; adding a sample invalidates the cache.
class Samples {
 public:
  void add(double x) {
    data_.push_back(x);
    sorted_ = false;
  }

  std::size_t count() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double mean() const {
    if (data_.empty()) return 0.0;
    double s = 0.0;
    for (double x : data_) s += x;
    return s / static_cast<double>(data_.size());
  }

  double stddev() const {
    if (data_.size() < 2) return 0.0;
    const double m = mean();
    double s = 0.0;
    for (double x : data_) s += (x - m) * (x - m);
    return std::sqrt(s / static_cast<double>(data_.size() - 1));
  }

  double min() const;
  double max() const;

  // Quantile q in [0, 1], linear interpolation between order statistics.
  double quantile(double q) const;

  // Fraction of samples <= x.
  double cdf_at(double x) const;
  // Fraction of samples > x.
  double ccdf_at(double x) const { return 1.0 - cdf_at(x); }

  const std::vector<double>& raw() const { return data_; }
  void clear() {
    data_.clear();
    sorted_ = false;
  }

  void merge(const Samples& other) {
    data_.insert(data_.end(), other.data_.begin(), other.data_.end());
    sorted_ = false;
  }

 private:
  void ensure_sorted() const;

  mutable std::vector<double> data_;
  mutable bool sorted_ = false;
};

}  // namespace mps
