// Congestion controller interface.
//
// The Subflow owns the generic state machine (slow start, fast recovery,
// RTO, idle CWND reset); controllers plug in the congestion-avoidance
// increase rule and the multiplicative-decrease factor. Coupled controllers
// (LIA, OLIA) additionally read their sibling subflows' state through the
// CcGroup interface, which mptcp::Connection implements — this is the
// coupling the paper identifies as the amplifier of idle CWND resets.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/time.h"

namespace mps {

// Snapshot of one subflow's congestion state, as seen by a coupled
// controller.
struct CcSiblingInfo {
  std::uint32_t subflow_id = 0;
  double cwnd = 0.0;    // segments
  double srtt_s = 0.0;  // seconds
  bool established = false;
  // Bytes acked since the most recent loss event on that subflow (OLIA's
  // l_r estimate).
  double inter_loss_bytes = 0.0;
};

// Cross-subflow aggregates shared by the coupled controllers (LIA, OLIA,
// BALIA). One recomputation serves every controller's per-ack read: the
// aggregates are pure functions of the sibling snapshot, computed in the
// exact per-sibling order (and with the exact skip conditions) the
// controllers' original private loops used, so cached and fresh values are
// bit-identical. Connection owns the canonical cached instance and
// invalidates it on every cwnd/RTT/inter-loss/membership change
// (SubflowEnv::on_cc_input_change); the invariant checker recomputes from
// scratch and compares, so a missed invalidation is a checkable bug rather
// than a silent drift.
struct CoupledCcTerms {
  std::vector<CcSiblingInfo> siblings;

  // LIA (RFC 6356): over established siblings with srtt > 0.
  double lia_total_cwnd = 0.0;
  double lia_best_ratio = 0.0;  // max_i cwnd_i / rtt_i^2
  double lia_sum_cwnd_over_rtt = 0.0;

  // OLIA: over established siblings with srtt > 0 and cwnd > 0 (a stricter
  // filter than LIA's, hence the separate aggregates).
  int olia_n = 0;
  double olia_sum_cwnd_over_rtt = 0.0;
  double olia_best_quality = -1.0;  // max l_r^2 / cwnd_r
  double olia_max_cwnd = -1.0;
  int olia_b_minus_m = 0;  // |B \ M|
  int olia_m_count = 0;    // |M|
  // Parallel to `siblings`: set-membership of each sibling.
  enum : std::uint8_t { kOliaCounted = 1, kOliaInB = 2, kOliaInM = 4 };
  std::vector<std::uint8_t> olia_flags;

  // BALIA: x_i = cwnd_i / rtt_i over the LIA-filtered sibling set.
  double balia_sum_x = 0.0;
  double balia_max_x = 0.0;

  static double olia_quality(const CcSiblingInfo& s) {
    return s.cwnd > 0.0 ? (s.inter_loss_bytes * s.inter_loss_bytes) / s.cwnd : 0.0;
  }

  // Recomputes every aggregate from `siblings` in place.
  void recompute();
};

// Implemented by mptcp::Connection; exposes all subflows of the connection.
class CcGroup {
 public:
  virtual ~CcGroup() = default;
  virtual void cc_sibling_info(std::vector<CcSiblingInfo>& out) const = 0;

  // Shared coupled-controller aggregates over the current sibling snapshot.
  // The default recomputes on every call (correct for test fakes);
  // Connection overrides with an invalidation-tracked cache.
  virtual const CoupledCcTerms& coupled_terms() const;

 protected:
  // Backs the recompute-always default, and Connection's cache.
  mutable CoupledCcTerms terms_;
};

class CongestionController {
 public:
  struct AckContext {
    std::uint32_t self_id = 0;
    double cwnd = 0.0;       // segments, before the increase
    double ssthresh = 0.0;   // segments
    double srtt_s = 0.0;     // seconds
    double inter_loss_bytes = 0.0;
    const CcGroup* group = nullptr;  // nullptr for single-path use
    TimePoint now;
  };

  virtual ~CongestionController() = default;

  // Additive increase (in segments) to apply for one newly acked full-size
  // segment during congestion avoidance. Slow start is handled uniformly by
  // the Subflow.
  virtual double ca_increase(const AckContext& ctx) = 0;

  // Multiplicative decrease on a fast-retransmit loss event:
  // ssthresh = cwnd * loss_factor().
  virtual double loss_factor() const { return 0.5; }

  // Hooks for controllers with epoch state (CUBIC).
  virtual void on_loss_event(const AckContext& /*ctx*/) {}
  virtual void on_rto(const AckContext& /*ctx*/) {}
  virtual void reset() {}

  virtual const char* name() const = 0;
};

enum class CcKind { kReno, kCubic, kLia, kOlia, kBalia };

const char* cc_kind_name(CcKind kind);

}  // namespace mps
