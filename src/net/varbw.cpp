#include "net/varbw.h"

#include <utility>

namespace mps {

BandwidthSchedule::BandwidthSchedule(Simulator& sim, Path& path,
                                     std::vector<RateChange> changes)
    : path_(path), changes_(std::move(changes)), start_time_(sim.now()), timer_(sim) {
  apply_next();
}

BandwidthSchedule::BandwidthSchedule(const BandwidthSchedule& src, Simulator& sim, Path& path)
    : path_(path),
      changes_(src.changes_),
      next_(src.next_),
      start_time_(src.start_time_),
      timer_(src.timer_, sim, [this] { apply(); }) {}

void BandwidthSchedule::apply_next() {
  if (next_ >= changes_.size()) return;
  timer_.schedule_at(start_time_ + changes_[next_].at, [this] { apply(); });
}

void BandwidthSchedule::apply() {
  path_.set_down_rate(changes_[next_].rate);
  ++next_;
  apply_next();
}

std::vector<RateChange> make_random_bandwidth_trace(Rng& rng,
                                                    const std::vector<Rate>& levels,
                                                    Duration mean_interval,
                                                    Duration total_duration) {
  std::vector<RateChange> out;
  Duration t = Duration::zero();
  while (t < total_duration) {
    const Rate rate = levels[rng.uniform_int(levels.size())];
    out.push_back({t, rate});
    t += Duration::from_seconds(rng.exponential(mean_interval.to_seconds()));
  }
  return out;
}

}  // namespace mps
