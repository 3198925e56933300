#include "fault/fault.h"

namespace mps {

bool FaultConfig::any() const {
  return gilbert_elliott.enabled || !outages.empty() || flap.enabled || reorder.enabled;
}

Duration FaultModel::extra_delay(TimePoint, Rng&) { return Duration::zero(); }

bool GilbertElliottLoss::should_drop(TimePoint, Rng& rng) {
  // Advance the chain once per offered packet, then draw the per-state loss.
  if (bad_) {
    if (rng.bernoulli(config_.p_bad_good)) bad_ = false;
  } else {
    if (rng.bernoulli(config_.p_good_bad)) bad_ = true;
  }
  const double p = bad_ ? config_.loss_bad : config_.loss_good;
  return p > 0.0 && rng.bernoulli(p);
}

OutageSchedule::OutageSchedule(std::vector<OutageWindow> outages, FlapConfig flap)
    : outages_(std::move(outages)), flap_(flap) {}

bool OutageSchedule::down_at(TimePoint t) const {
  for (const OutageWindow& w : outages_) {
    const TimePoint start = TimePoint::origin() + w.start;
    if (t >= start && t < start + w.duration) return true;
  }
  if (flap_.enabled && flap_.period > Duration::zero()) {
    const Duration since = t - (TimePoint::origin() + flap_.phase);
    if (since >= Duration::zero()) {
      const Duration into_cycle = Duration::nanos(since.ns() % flap_.period.ns());
      if (into_cycle < flap_.down_time) return true;
    }
  }
  return false;
}

bool OutageSchedule::should_drop(TimePoint now, Rng&) { return down_at(now); }

Duration ReorderJitter::extra_delay(TimePoint, Rng& rng) {
  if (config_.prob <= 0.0 || !rng.bernoulli(config_.prob)) return Duration::zero();
  Duration extra = config_.delay;
  if (config_.jitter > Duration::zero()) {
    extra += Duration::nanos(static_cast<std::int64_t>(
        rng.uniform() * static_cast<double>(config_.jitter.ns())));
  }
  return extra;
}

CompositeFault::CompositeFault(std::vector<std::unique_ptr<FaultModel>> models)
    : models_(std::move(models)) {}

bool CompositeFault::should_drop(TimePoint now, Rng& rng) {
  for (auto& m : models_) {
    if (m->should_drop(now, rng)) return true;
  }
  return false;
}

Duration CompositeFault::extra_delay(TimePoint now, Rng& rng) {
  Duration total = Duration::zero();
  for (auto& m : models_) total += m->extra_delay(now, rng);
  return total;
}

std::unique_ptr<FaultModel> CompositeFault::clone() const {
  std::vector<std::unique_ptr<FaultModel>> models;
  models.reserve(models_.size());
  for (const auto& m : models_) models.push_back(m->clone());
  return std::make_unique<CompositeFault>(std::move(models));
}

std::unique_ptr<FaultModel> make_fault_model(const FaultConfig& config) {
  if (!config.any()) return nullptr;
  std::vector<std::unique_ptr<FaultModel>> models;
  if (!config.outages.empty() || config.flap.enabled) {
    models.push_back(std::make_unique<OutageSchedule>(config.outages, config.flap));
  }
  if (config.gilbert_elliott.enabled) {
    models.push_back(std::make_unique<GilbertElliottLoss>(config.gilbert_elliott));
  }
  if (config.reorder.enabled) {
    models.push_back(std::make_unique<ReorderJitter>(config.reorder));
  }
  if (models.size() == 1) return std::move(models.front());
  return std::make_unique<CompositeFault>(std::move(models));
}

}  // namespace mps
