// A bidirectional path between server and client: a forward (data) link and
// a reverse (ACK) link.
//
// All payload in the paper's experiments flows server -> client; the reverse
// direction carries only ACKs and GET requests, is never the bottleneck, and
// is therefore modelled with propagation delay plus a generous rate.
#pragma once

#include <memory>
#include <string>

#include "net/link.h"
#include "sim/simulator.h"

namespace mps {

struct PathConfig {
  std::string name = "path";
  Rate down_rate = Rate::mbps(10);       // regulated bandwidth (the knob)
  Duration rtt_base = Duration::millis(20);  // propagation RTT, no queueing
  std::size_t queue_packets = 40;
  double loss_rate = 0.0;
  Rate up_rate = Rate::mbps(100);        // ACK direction, effectively unconstrained
  FaultConfig fault;                     // downlink impairments (fault/fault.h)
};

// Built-in technology profiles matching the paper's testbed. The base RTTs
// are chosen so that measured loaded RTTs reproduce paper Table 2 (WiFi RTT
// < LTE RTT at equal regulated bandwidth).
PathConfig wifi_profile(Rate down_rate);
PathConfig lte_profile(Rate down_rate);

class Path {
 public:
  Path(Simulator& sim, PathConfig config);
  // Snapshot support: the twin of `src` in `sim` — both links built as twins
  // of src's (exp/snapshot.h).
  Path(const Path& src, Simulator& sim)
      : config_(src.config_), down_(src.down_, sim), up_(src.up_, sim) {}

  Link& down() { return down_; }          // server -> client (data)
  Link& up() { return up_; }              // client -> server (ACKs)
  const Link& down() const { return down_; }
  const Link& up() const { return up_; }

  const std::string& name() const { return config_.name; }
  Duration rtt_base() const { return config_.rtt_base; }

  // Changes the regulated downlink bandwidth (Section 5.3 experiments).
  void set_down_rate(Rate rate) { down_.set_rate(rate); }
  Rate down_rate() const { return down_.rate(); }

 private:
  PathConfig config_;
  Link down_;
  Link up_;
};

}  // namespace mps
