// Metrics registry: named Counter/Gauge/Histogram instruments with
// per-connection / per-subflow / per-entity labels.
//
// Design constraints (see DESIGN.md "Observability"):
//  * Handles are plain pointers into registry-owned storage (a deque, so
//    addresses are stable); a default-constructed handle is a no-op. The
//    instrumented hot paths therefore cost one predictable branch when no
//    recorder is attached, and one add/store when one is.
//  * Instruments are created once at object construction (Subflow, Link,
//    Connection), never on the per-packet path.
//  * Gauges optionally keep their full history as a TimeSeries
//    (MetricsRegistry::set_keep_series), which is how the paper's CWND trace
//    figures are reproduced from the registry instead of bespoke collectors.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/series.h"
#include "util/time.h"

namespace mps {

// Instrument identity beyond the name. `conn`/`subflow` are -1 when the
// instrument is not scoped to a connection/subflow; `entity` names
// non-connection objects (links).
struct MetricLabels {
  std::int64_t conn = -1;
  std::int64_t subflow = -1;
  std::string entity;

  friend bool operator==(const MetricLabels&, const MetricLabels&) = default;
};

enum class InstrumentKind : std::uint8_t { kCounter, kGauge, kHistogram };

// Log2-bucketed histogram; covers ~[2^-20, 2^43] with one bucket per octave,
// which is plenty for latencies in seconds, byte counts, and queue depths.
struct HistogramData {
  static constexpr int kBuckets = 64;
  static constexpr int kOffset = 20;  // bucket 0 holds values <= 2^-20

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void record(double v);
  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  // Upper bucket bound containing quantile q (0..1]; exact min/max at the ends.
  double quantile(double q) const;
};

struct Instrument {
  std::string name;
  MetricLabels labels;
  InstrumentKind kind = InstrumentKind::kCounter;
  std::uint64_t count = 0;   // Counter value
  double value = 0.0;        // Gauge current value
  HistogramData hist;        // Histogram state
  TimeSeries series;         // Gauge history when keep_series was on
  bool keep_series = false;
};

class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) {
    if (inst_ != nullptr) inst_->count += n;
  }
  std::uint64_t value() const { return inst_ != nullptr ? inst_->count : 0; }
  bool attached() const { return inst_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(Instrument* inst) : inst_(inst) {}
  Instrument* inst_ = nullptr;
};

class Gauge {
 public:
  Gauge() = default;
  void set(TimePoint t, double v) {
    if (inst_ == nullptr) return;
    inst_->value = v;
    if (inst_->keep_series) inst_->series.add(t, v);
  }
  double value() const { return inst_ != nullptr ? inst_->value : 0.0; }
  bool attached() const { return inst_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(Instrument* inst) : inst_(inst) {}
  Instrument* inst_ = nullptr;
};

class Histogram {
 public:
  Histogram() = default;
  void record(double v) {
    if (inst_ != nullptr) inst_->hist.record(v);
  }
  std::uint64_t count() const { return inst_ != nullptr ? inst_->hist.count : 0; }
  double sum() const { return inst_ != nullptr ? inst_->hist.sum : 0.0; }
  bool attached() const { return inst_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(Instrument* inst) : inst_(inst) {}
  Instrument* inst_ = nullptr;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  // Not copyable: the index holds views into this registry's own storage
  // (clone_from copies and re-indexes).
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Creating an instrument that already exists (same name + labels + kind)
  // returns a handle to the existing storage, so several owners may share a
  // counter. Registration and lookup are O(1): a hash index over (kind,
  // name, labels) beside the deque, which keeps registration order.
  Counter counter(std::string_view name, MetricLabels labels = {});
  Gauge gauge(std::string_view name, MetricLabels labels = {});
  Histogram histogram(std::string_view name, MetricLabels labels = {});

  // Gauges created after this call record their full history.
  void set_keep_series(bool keep) { keep_series_ = keep; }
  bool keep_series() const { return keep_series_; }

  const std::deque<Instrument>& instruments() const { return instruments_; }
  // The earliest-registered instrument of any kind with this name and
  // labels, or nullptr.
  const Instrument* find(std::string_view name, const MetricLabels& labels) const;

  // --- snapshot-and-fork support (exp/snapshot.h) ---------------------------
  // Wholesale copy of `src`'s instruments. Seeds a fork's registry *before*
  // its model objects are constructed: get_or_create then resolves each
  // (name, labels, kind) to the copied storage, so handles land on
  // instruments holding the source's data, index-for-index.
  void clone_from(const MetricsRegistry& src);
  // True when `other` holds the same instruments (name/labels/kind, in
  // order) with identical recorded data — the fork-vs-scratch equivalence
  // check the snapshot tests assert.
  bool data_equals(const MetricsRegistry& other) const;
  // Gauge history for an instrument, or nullptr when absent/not kept.
  const TimeSeries* series(std::string_view name, const MetricLabels& labels) const;
  // Sum of a counter over all label sets (e.g. total retransmits).
  std::uint64_t total(std::string_view name) const;

 private:
  // An instrument's identity as views: into the caller's strings for a
  // lookup, into the instrument's own (deque elements never move) as a
  // stored key, so neither allocates.
  struct Key {
    InstrumentKind kind;
    std::string_view name;
    std::int64_t conn;
    std::int64_t subflow;
    std::string_view entity;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };
  static Key key_of(InstrumentKind kind, std::string_view name, const MetricLabels& labels) {
    return Key{kind, name, labels.conn, labels.subflow, labels.entity};
  }
  // Index of the instrument with this identity in instruments_, or kNone.
  std::size_t position(InstrumentKind kind, std::string_view name,
                       const MetricLabels& labels) const;
  Instrument& get_or_create(std::string_view name, InstrumentKind kind, MetricLabels labels);

  static constexpr std::size_t kNone = ~std::size_t{0};
  std::deque<Instrument> instruments_;  // deque: stable addresses for handles
  std::unordered_map<Key, std::size_t, KeyHash> index_;  // -> position in instruments_
  bool keep_series_ = false;
};

}  // namespace mps
