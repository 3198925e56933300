#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "obs/prof.h"

namespace mps {

void HistogramData::record(double v) {
  if (count == 0) {
    min = v;
    max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  ++count;
  sum += v;

  int idx = 0;
  if (v > 0.0) {
    idx = static_cast<int>(std::ceil(std::log2(v))) + kOffset;
    idx = std::clamp(idx, 0, kBuckets - 1);
  }
  ++buckets[static_cast<std::size_t>(idx)];
}

double HistogramData::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  const auto target = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets[static_cast<std::size_t>(i)];
    if (seen >= target) {
      return std::min(max, std::exp2(static_cast<double>(i - kOffset)));
    }
  }
  return max;
}

std::size_t MetricsRegistry::KeyHash::operator()(const Key& k) const noexcept {
  const std::hash<std::string_view> str;
  std::size_t h = str(k.name);
  const auto mix = [&h](std::size_t v) { h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2); };
  mix(static_cast<std::size_t>(k.kind));
  mix(static_cast<std::size_t>(k.conn));
  mix(static_cast<std::size_t>(k.subflow));
  mix(str(k.entity));
  return h;
}

std::size_t MetricsRegistry::position(InstrumentKind kind, std::string_view name,
                                      const MetricLabels& labels) const {
  const auto it = index_.find(key_of(kind, name, labels));
  return it == index_.end() ? kNone : it->second;
}

Instrument& MetricsRegistry::get_or_create(std::string_view name, InstrumentKind kind,
                                           MetricLabels labels) {
  MPS_PROF_SCOPE(kMetricsRegister);
  MPS_PROF_MEM_SCOPE(kObs);
  if (const std::size_t at = position(kind, name, labels); at != kNone) return instruments_[at];
  Instrument& inst = instruments_.emplace_back();
  inst.name = std::string(name);
  inst.labels = std::move(labels);
  inst.kind = kind;
  inst.keep_series = keep_series_;
  index_.emplace(key_of(kind, inst.name, inst.labels), instruments_.size() - 1);
  return inst;
}

void MetricsRegistry::clone_from(const MetricsRegistry& src) {
  instruments_ = src.instruments_;
  keep_series_ = src.keep_series_;
  index_.clear();
  index_.reserve(instruments_.size());
  for (std::size_t i = 0; i < instruments_.size(); ++i) {
    const Instrument& inst = instruments_[i];
    index_.emplace(key_of(inst.kind, inst.name, inst.labels), i);
  }
}

Counter MetricsRegistry::counter(std::string_view name, MetricLabels labels) {
  return Counter(&get_or_create(name, InstrumentKind::kCounter, std::move(labels)));
}

Gauge MetricsRegistry::gauge(std::string_view name, MetricLabels labels) {
  return Gauge(&get_or_create(name, InstrumentKind::kGauge, std::move(labels)));
}

Histogram MetricsRegistry::histogram(std::string_view name, MetricLabels labels) {
  return Histogram(&get_or_create(name, InstrumentKind::kHistogram, std::move(labels)));
}

const Instrument* MetricsRegistry::find(std::string_view name,
                                        const MetricLabels& labels) const {
  std::size_t first = kNone;
  for (const InstrumentKind kind :
       {InstrumentKind::kCounter, InstrumentKind::kGauge, InstrumentKind::kHistogram}) {
    first = std::min(first, position(kind, name, labels));
  }
  return first == kNone ? nullptr : &instruments_[first];
}

const TimeSeries* MetricsRegistry::series(std::string_view name,
                                          const MetricLabels& labels) const {
  const Instrument* inst = find(name, labels);
  if (inst == nullptr || !inst->keep_series) return nullptr;
  return &inst->series;
}

std::uint64_t MetricsRegistry::total(std::string_view name) const {
  std::uint64_t sum = 0;
  for (const Instrument& inst : instruments_) {
    if (inst.kind == InstrumentKind::kCounter && inst.name == name) sum += inst.count;
  }
  return sum;
}

void MetricsRegistry::restore_data_from(const MetricsRegistry& src) {
  if (instruments_.size() != src.instruments_.size()) {
    throw std::logic_error("MetricsRegistry::restore_data_from: registries not isomorphic");
  }
  auto it = instruments_.begin();
  auto sit = src.instruments_.begin();
  for (; it != instruments_.end(); ++it, ++sit) {
    if (it->name != sit->name || !(it->labels == sit->labels) || it->kind != sit->kind) {
      throw std::logic_error("MetricsRegistry::restore_data_from: instrument mismatch");
    }
    it->count = sit->count;
    it->value = sit->value;
    it->hist = sit->hist;
    it->series = sit->series;
    it->keep_series = sit->keep_series;
  }
}

bool MetricsRegistry::data_equals(const MetricsRegistry& other) const {
  if (instruments_.size() != other.instruments_.size()) return false;
  auto it = instruments_.begin();
  auto ot = other.instruments_.begin();
  for (; it != instruments_.end(); ++it, ++ot) {
    if (it->name != ot->name || !(it->labels == ot->labels) || it->kind != ot->kind) {
      return false;
    }
    if (it->count != ot->count || it->value != ot->value) return false;
    const HistogramData& a = it->hist;
    const HistogramData& b = ot->hist;
    if (a.count != b.count || a.sum != b.sum || a.min != b.min || a.max != b.max ||
        a.buckets != b.buckets) {
      return false;
    }
    const auto& ap = it->series.points();
    const auto& bp = ot->series.points();
    if (ap.size() != bp.size()) return false;
    for (std::size_t i = 0; i < ap.size(); ++i) {
      if (!(ap[i].t == bp[i].t) || ap[i].value != bp[i].value) return false;
    }
  }
  return true;
}

}  // namespace mps
