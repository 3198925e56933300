// Pluggable link impairment models, layered on Link's iid loss_rate.
//
// The paper's headline results come from lossy WiFi and in-the-wild LTE
// paths; plain iid loss cannot reproduce their burstiness. Three models:
//
//   * Gilbert-Elliott burst loss: a two-state Markov chain (good/bad)
//     advanced once per offered packet, with a per-state drop probability.
//     The classic parameterization for WiFi interference bursts.
//   * Scheduled outages and flaps: deterministic [start, start+duration)
//     windows (or a periodic down-time) during which every packet is
//     dropped. Models handover blackouts and AP roaming.
//   * Reordering via jitter: with some probability a packet gets extra
//     propagation delay (base + uniform jitter), letting later packets
//     overtake it. Models LTE HARQ retransmissions and link-layer ARQ.
//
// Determinism contract: a model draws from the owning Link's RNG stream
// (passed by reference per call), so a link with no faults configured draws
// nothing and clean-link runs stay byte-identical regardless of whether the
// fault subsystem is compiled in. Decisions are made per offered packet in
// arrival order, which is itself deterministic under a fixed seed.
#pragma once

#include <memory>
#include <vector>

#include "util/rng.h"
#include "util/time.h"

namespace mps {

// --- configuration (plain data, carried by LinkConfig/PathConfig) -----------

struct GilbertElliottConfig {
  bool enabled = false;
  double p_good_bad = 0.0;   // per-packet P(good -> bad)
  double p_bad_good = 0.25;  // per-packet P(bad -> good); mean burst = 1/p
  double loss_good = 0.0;    // drop probability while in the good state
  double loss_bad = 0.5;     // drop probability while in the bad state
};

// All packets offered during [start, start + duration) are dropped.
struct OutageWindow {
  Duration start;
  Duration duration;
};

// Periodic outage: starting at `phase`, the link is down for `down_time`
// out of every `period`.
struct FlapConfig {
  bool enabled = false;
  Duration period = Duration::seconds(10);
  Duration down_time = Duration::seconds(1);
  Duration phase = Duration::zero();
};

struct ReorderConfig {
  bool enabled = false;
  double prob = 0.0;                       // per-packet P(extra delay)
  Duration delay = Duration::millis(20);   // base extra propagation delay
  Duration jitter = Duration::millis(10);  // plus U[0, jitter)
};

struct FaultConfig {
  GilbertElliottConfig gilbert_elliott;
  std::vector<OutageWindow> outages;
  FlapConfig flap;
  ReorderConfig reorder;

  // True when any impairment is configured; Link only instantiates a model
  // (and hence only draws from its RNG) when this holds.
  bool any() const;
};

// --- runtime models ---------------------------------------------------------

// One impairment applied to a unidirectional link. Both hooks are consulted
// once per offered/delivered packet; `rng` is the owning link's stream.
class FaultModel {
 public:
  virtual ~FaultModel() = default;

  // Called once per packet offered to the link (before queueing). True
  // drops the packet.
  virtual bool should_drop(TimePoint now, Rng& rng) = 0;

  // Extra propagation delay for a packet leaving the serializer. Nonzero
  // values let later packets overtake (reordering at the receiver).
  virtual Duration extra_delay(TimePoint now, Rng& rng);

  virtual const char* name() const = 0;

  // Snapshot support: an independent copy, mutable state included, for a
  // forked link.
  virtual std::unique_ptr<FaultModel> clone() const = 0;
};

class GilbertElliottLoss final : public FaultModel {
 public:
  explicit GilbertElliottLoss(GilbertElliottConfig config) : config_(config) {}
  bool should_drop(TimePoint now, Rng& rng) override;
  const char* name() const override { return "gilbert_elliott"; }
  bool in_bad_state() const { return bad_; }
  std::unique_ptr<FaultModel> clone() const override {
    return std::make_unique<GilbertElliottLoss>(*this);
  }

 private:
  GilbertElliottConfig config_;
  bool bad_ = false;
};

// Deterministic drop windows: explicit outages plus an optional flap. Draws
// no randomness.
class OutageSchedule final : public FaultModel {
 public:
  OutageSchedule(std::vector<OutageWindow> outages, FlapConfig flap);
  bool should_drop(TimePoint now, Rng& rng) override;
  const char* name() const override { return "outage"; }
  bool down_at(TimePoint t) const;
  std::unique_ptr<FaultModel> clone() const override {
    return std::make_unique<OutageSchedule>(*this);
  }

 private:
  std::vector<OutageWindow> outages_;
  FlapConfig flap_;
};

class ReorderJitter final : public FaultModel {
 public:
  explicit ReorderJitter(ReorderConfig config) : config_(config) {}
  bool should_drop(TimePoint, Rng&) override { return false; }
  Duration extra_delay(TimePoint now, Rng& rng) override;
  const char* name() const override { return "reorder"; }
  std::unique_ptr<FaultModel> clone() const override {
    return std::make_unique<ReorderJitter>(*this);
  }

 private:
  ReorderConfig config_;
};

// Applies sub-models in order: drop if any drops, extra delay is the sum.
// Evaluation short-circuits on the first drop, so a packet killed by an
// outage does not advance the Gilbert-Elliott chain — acceptable, since
// determinism is per-seed, not per-model.
class CompositeFault final : public FaultModel {
 public:
  explicit CompositeFault(std::vector<std::unique_ptr<FaultModel>> models);
  bool should_drop(TimePoint now, Rng& rng) override;
  Duration extra_delay(TimePoint now, Rng& rng) override;
  const char* name() const override { return "composite"; }
  std::unique_ptr<FaultModel> clone() const override;

 private:
  std::vector<std::unique_ptr<FaultModel>> models_;
};

// Builds the model stack for a config: outages/flap first (cheap, no RNG),
// then Gilbert-Elliott, then reordering. Returns nullptr when config.any()
// is false — the caller skips the fault path entirely.
std::unique_ptr<FaultModel> make_fault_model(const FaultConfig& config);

}  // namespace mps
