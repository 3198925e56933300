// OCO — online-convex-optimization gradient-weight scheduler, modeled on
// the learned path-weighting loop of mpquic-fec's PathScheduler (see
// SNIPPETS.md Snippet 1): each path carries a weight, updated online by a
// multiplicative-weights (exponentiated-gradient) step against an observed
// per-path cost, and segments are spread by a deterministic weighted
// deficit round instead of argmin-RTT.
//
// Every `update_period` picks, each live path's cost is refreshed:
//
//   cost_i = (rtt_i / min_rtt - 1) + loss_weight * loss_ewma_i
//   w_i   *= exp(-eta * cost_i);  floor at min_weight / n;  renormalize
//
// where loss_ewma_i tracks the path's recent retransmit fraction (delta
// retransmits over delta transmissions since the last update). The deficit
// round then credits every schedulable path by its weight and sends on the
// highest-credit path that can accept (ties toward the lowest id), so the
// long-run share of segments tracks the learned weights deterministically.
//
// Cross-path redundancy: in a loss-correlated regime — every live path's
// loss EWMA above `arm_threshold`, so no single path can be trusted with
// sole custody of a segment — the scheduler arms duplicate_to_all() and the
// connection mirrors each scheduled segment onto the other subflows
// (mpquic-fec reaches the same decision with its FEC/redundancy
// controller). The armed state disarms, with hysteresis, once some path's
// EWMA falls back below `disarm_threshold`.
//
// All learned state (weights, credits, activity baselines, the armed flag)
// is copied by restore_from(), and on_subflow_change() drops departed paths
// and renormalizes — the PR 8 fork and PR 9 churn contracts.
#pragma once

#include <cstdint>
#include <vector>

#include "mptcp/scheduler.h"

namespace mps {

struct OcoConfig {
  int update_period = 16;         // picks between weight updates
  double eta = 0.25;              // exponentiated-gradient step size
  double loss_weight = 4.0;       // cost units per unit loss fraction
  double min_weight = 0.05;       // aggregate exploration floor (split over n)
  double ewma_gain = 0.3;         // loss EWMA update gain
  double credit_cap = 4.0;        // deficit credit bound per path
  bool redundancy = true;         // allow arming duplicate_to_all()
  double arm_threshold = 0.02;    // every live path above this -> arm
  double disarm_threshold = 0.005;  // any live path below this -> disarm
};

class OcoScheduler final : public Scheduler, public ArenaAllocated<OcoScheduler> {
 public:
  explicit OcoScheduler(OcoConfig config = {}) : config_(config) {}

  Subflow* pick(Connection& conn) override;
  const char* name() const override { return "oco"; }
  bool duplicate_to_all() const override { return armed_; }

  void reset() override {
    paths_.clear();
    picks_since_update_ = 0;
    armed_ = false;
  }

  // Membership changed: drop departed/draining paths, renormalize what
  // remains, and re-evaluate the redundancy regime (a single surviving path
  // has nothing to duplicate onto).
  void on_subflow_change(Connection& conn) override;

  void restore_from(const Scheduler& src) override {
    Scheduler::restore_from(src);
    const auto& other = static_cast<const OcoScheduler&>(src);
    paths_ = other.paths_;
    picks_since_update_ = other.picks_since_update_;
    armed_ = other.armed_;
  }

  // --- test/diagnostic inspection -------------------------------------------
  bool armed() const { return armed_; }
  double weight_of(std::uint32_t subflow_id) const;
  std::size_t tracked_paths() const { return paths_.size(); }

 private:
  struct PathState {
    std::uint32_t id = 0;
    double weight = 1.0;
    double credit = 0.0;
    double loss_ewma = 0.0;
    // Activity baselines for the per-update deltas.
    std::uint64_t last_sent = 0;
    std::uint64_t last_retx = 0;
  };

  // Adds states for newly schedulable subflows (id order, deterministic).
  void sync_paths(Connection& conn);
  void update_weights(Connection& conn);
  void normalize_weights();
  PathState* state_of(std::uint32_t id);

  OcoConfig config_;
  std::vector<PathState> paths_;  // id-ascending
  int picks_since_update_ = 0;
  bool armed_ = false;
};

}  // namespace mps
