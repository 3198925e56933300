// Connection demultiplexer for a link direction.
//
// Web-browsing scenarios run several MPTCP connections over the same pair of
// physical paths; the Mux dispatches delivered packets to the endpoint that
// registered the packet's conn_id. Unroutable packets (e.g. arriving after a
// connection closed) are counted and dropped, mirroring a RST-less teardown.
#pragma once

#include <cstdint>
#include <vector>

#include "net/link.h"
#include "net/packet.h"

namespace mps {

class Mux {
 public:
  // A route is a borrowed endpoint plus a plain function called with it.
  // Handlers take the packet by const reference: the mux borrows each packet
  // from the link's propagation pool, so dispatch moves no packet bytes.
  using Handler = void (*)(void* endpoint, const Packet& p);

  // Installs this mux as the link's deliver function.
  void attach_to(Link& link) {
    link.set_deliver([this](const Packet& p) { dispatch(p); });
  }

  // World hands out conn_ids in sequence from 1, so the table is dense: one
  // 16-byte entry per id ever issued, no hash node and no hashing per packet.
  void add_route(std::uint32_t conn_id, void* endpoint, Handler handler) {
    if (conn_id >= routes_.size()) routes_.resize(std::size_t{conn_id} + 1);
    routes_[conn_id] = Route{endpoint, handler};
  }

  void remove_route(std::uint32_t conn_id) {
    if (conn_id < routes_.size()) routes_[conn_id] = Route{};
  }

  void dispatch(const Packet& p) {
    // Copied out: a handler may add or remove routes (and so grow the table)
    // while it runs.
    const Route r = p.conn_id < routes_.size() ? routes_[p.conn_id] : Route{};
    if (r.handler == nullptr) {
      ++orphans_;
      return;
    }
    ++routed_;
    r.handler(r.endpoint, p);
  }

  std::uint64_t orphan_count() const { return orphans_; }
  // Packets handed to a registered endpoint. Conservation property exploited
  // by the churn tests: every packet a link delivers is routed or orphaned,
  // so routed + orphans equals the links' delivered totals.
  std::uint64_t routed_count() const { return routed_; }

  // Snapshot support: copies the counters only. Routes are re-registered by
  // the fork's own connections at their construction time, into a table
  // sized like the source's so those registrations never regrow it.
  void restore_from(const Mux& src) {
    orphans_ = src.orphans_;
    routed_ = src.routed_;
    routes_.assign(src.routes_.size(), Route{});
  }

 private:
  struct Route {
    void* endpoint = nullptr;
    Handler handler = nullptr;
  };

  std::vector<Route> routes_;  // indexed by conn_id
  std::uint64_t orphans_ = 0;
  std::uint64_t routed_ = 0;
};

}  // namespace mps
