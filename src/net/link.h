// A unidirectional bottleneck link: fixed serialization rate, one-way
// propagation delay, drop-tail FIFO queue, optional random loss.
//
// This models the `tc` token-bucket regulation used in the paper's testbed:
// the regulated rate dominates, and queueing at the regulator produces the
// large RTTs of paper Table 2. Rate changes take effect for the next
// serialization (in-flight transmissions complete at the old rate), which is
// exact enough at the tens-of-seconds change intervals used in Section 5.3.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "fault/fault.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "obs/metrics.h"
#include "sim/callback.h"
#include "sim/simulator.h"
#include "util/rate.h"
#include "util/ring.h"
#include "util/rng.h"
#include "util/time.h"

namespace mps {

struct LinkConfig {
  Rate rate = Rate::mbps(10);
  Duration prop_delay = Duration::millis(5);
  std::size_t queue_packets = 40;  // drop-tail capacity; reproduces paper Table 2 loaded RTTs
  double loss_rate = 0.0;          // iid random loss probability
  FaultConfig fault;               // burst loss / outages / reordering (fault/fault.h)
};

struct LinkStats {
  std::uint64_t packets_in = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t drops_queue = 0;
  std::uint64_t drops_random = 0;
  std::uint64_t drops_fault = 0;  // dropped by an impairment model
  std::uint64_t reordered = 0;    // packets given extra fault delay
  std::size_t max_queue_depth = 0;
};

class Link {
 public:
  // SBO move-only callback: installing a handler whose captures fit 48 bytes
  // means per-packet delivery does no type-erased heap allocation (the old
  // std::function signature allocated on every assignment above 16 bytes).
  using DeliverFn = BasicCallback<void(const Packet&)>;

  Link(Simulator& sim, LinkConfig config, std::string name = "link");
  // Snapshot support (exp/snapshot.h): the twin of `src` in `sim`, whose
  // queue was structure-cloned from src's. Copies the config, queue,
  // in-service packet, propagation FIFO, stats, RNG and a clone of the fault
  // model, and adopts src's pending events (serializer or zero-rate poll,
  // FIFO head, overtakers) by EventId. The deliver function starts empty:
  // the fork's mux installs its own.
  Link(const Link& src, Simulator& sim);
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // The receiving endpoint. Must be set before the first send().
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  // Random loss and fault-model draws come from this stream; a link with
  // loss_rate == 0 and no faults never touches it, so loss-free runs are
  // RNG-schedule independent.
  void set_rng(Rng rng) { rng_ = rng; }

  // Installs (or clears) an impairment model; normally built from
  // LinkConfig::fault at construction. Tests may swap in custom models.
  void set_fault_model(std::unique_ptr<FaultModel> model) { fault_ = std::move(model); }

  // Offers a packet to the link. May drop (queue overflow or random loss).
  // Only an admitted packet is copied, once, into a pool slot it keeps
  // until delivery.
  void send(const Packet& pkt);

  void set_rate(Rate rate) { config_.rate = rate; }
  Rate rate() const { return config_.rate; }
  void set_prop_delay(Duration d) { config_.prop_delay = d; }
  Duration prop_delay() const { return config_.prop_delay; }
  void set_loss_rate(double p) { config_.loss_rate = p; }

  std::size_t queue_depth() const { return queue_.size(); }
  bool busy() const { return in_service_ != nullptr; }
  // Packet slots ever created (diagnostics).
  std::size_t pool_slots() const { return pool_.capacity(); }
  const LinkStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }

  // Current one-packet serialization time (diagnostics).
  Duration serialization_time(std::uint32_t bytes) const {
    return config_.rate.transmit_time(bytes);
  }

 private:
  // A packet in propagation with the stamp it reserved at tx-done.
  struct InFlight {
    Packet* pkt;
    TimePoint when;
    std::uint64_t seq;
  };

  // Registers the flight-recorder instruments (no-op without a recorder).
  void register_instruments();
  void start_transmission();
  void finish_transmission();
  void deliver_head();  // places the next entry's event, then delivers
  void deliver(Packet* p);

  Simulator& sim_;
  LinkConfig config_;
  std::string name_;
  DeliverFn deliver_;
  Rng rng_{0xabcdef12345678ULL};
  std::unique_ptr<FaultModel> fault_;

  PacketPool pool_;  // every admitted packet's slot until it is delivered
  RingDeque<Packet*> queue_;
  Packet* in_service_ = nullptr;
  Timer tx_timer_;
  // Which callback tx_timer_ holds: true = parked zero-rate poll
  // (start_transmission), false = serialization end (finish_transmission).
  // Cannot be inferred from the rate — it may change while parked — and a
  // twin needs it to rebuild the right closure for the adopted event.
  bool tx_parked_ = false;
  // Propagation (htsim's Pipe): entries leave in (when, seq) order, so only
  // the head holds a queue event, placed with its reserved stamp when the
  // previous head fires. A packet that would overtake the tail (fault delay
  // ahead of it, or a shorter prop delay) keeps its own event (prop_event).
  RingDeque<InFlight> prop_;
  EventId head_event_ = kInvalidEventId;
  LinkStats stats_;

  // Flight-recorder instruments, labelled entity=name_ (no-ops unless a
  // recorder was attached to the Simulator before construction).
  struct Instruments {
    Counter drops_queue, drops_random, drops_fault, busy_ns;
    Gauge queue_depth;
  };
  Instruments obs_;
};

}  // namespace mps
