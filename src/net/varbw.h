// Time-varying bandwidth drivers.
//
// BandwidthSchedule replays an explicit (time, rate) schedule onto a path's
// downlink. RandomBandwidthProcess generates the Section 5.3 workload:
// rates drawn uniformly from a set, held for exponentially distributed
// intervals. The full schedule is pre-generated from a seed so that every
// scheduler sees the identical bandwidth trace for a given scenario.
#pragma once

#include <vector>

#include "net/path.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace mps {

struct RateChange {
  Duration at;  // offset from schedule start
  Rate rate;
};

// Pre-generated schedule of rate changes applied to one path.
class BandwidthSchedule {
 public:
  // Starts applying the schedule at once, offsets measured from now().
  BandwidthSchedule(Simulator& sim, Path& path, std::vector<RateChange> changes);
  // Snapshot support (exp/snapshot.h): the twin of `src` driving `path` in
  // `sim`, whose queue was structure-cloned from src's. Copies the changes
  // and the schedule position and adopts src's pending rate change.
  BandwidthSchedule(const BandwidthSchedule& src, Simulator& sim, Path& path);
  BandwidthSchedule(const BandwidthSchedule&) = delete;
  BandwidthSchedule& operator=(const BandwidthSchedule&) = delete;

  const std::vector<RateChange>& changes() const { return changes_; }

 private:
  void apply_next();
  void apply();  // the pending change, then the next one's timer

  Path& path_;
  std::vector<RateChange> changes_;
  std::size_t next_ = 0;
  TimePoint start_time_;
  Timer timer_;
};

// Generates the paper's Section 5.3 random bandwidth trace: values chosen
// uniformly at random from `levels`, change intervals ~ Exp(mean_interval).
std::vector<RateChange> make_random_bandwidth_trace(Rng& rng,
                                                    const std::vector<Rate>& levels,
                                                    Duration mean_interval,
                                                    Duration total_duration);

}  // namespace mps
