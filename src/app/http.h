// HTTP-style object transfer over one MPTCP connection.
//
// Mirrors the paper's Apache + persistent-connection setup: the client
// issues GETs (modelled as a one-way control message on the primary path;
// the upstream direction is never the bottleneck in the testbed), the server
// streams the response through the connection-level send buffer, and
// responses on one connection are serialized FIFO as in HTTP/1.1.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mptcp/connection.h"
#include "sim/simulator.h"
#include "traffic/arena.h"
#include "util/ring.h"

namespace mps {

struct ObjectResult {
  std::uint64_t bytes = 0;
  TimePoint requested;   // client issued the GET
  TimePoint started;     // server began sending
  TimePoint completed;   // last byte delivered in order to the client app
  // Wire-arrival time of the last packet per subflow during this object
  // (paper Fig. 5's "time difference between last packets"); never() when a
  // subflow carried nothing.
  TimePoint last_arrival_wifi;
  TimePoint last_arrival_lte;
};

// Exchanges churn with their connections, so they recycle arena slots too
// (traffic/arena.h).
class HttpExchange : public ArenaAllocated<HttpExchange> {
 public:
  using DoneFn = std::function<void(const ObjectResult&)>;

  // `request_delay`: one-way latency of the GET (primary path's base
  // one-way delay by default; pass explicitly when known).
  HttpExchange(Simulator& sim, Connection& conn, Duration request_delay);
  ~HttpExchange();

  // Issues a GET for an object of `bytes`. Responses are served FIFO;
  // callers may queue several (browser behaviour differs: see WebBrowser,
  // which serializes per connection).
  void get(std::uint64_t bytes, DoneFn done);

  std::size_t outstanding() const { return objects_.size() - head_; }
  Connection& connection() { return conn_; }

  // Completion time of everything delivered so far.
  std::uint64_t total_delivered() const { return delivered_total_; }

  // --- snapshot support (exp/snapshot.h) ------------------------------------
  // Copies the object FIFO and in-flight GET events from `src` (an exchange
  // over the fork's twin connection) and adopts the request events by
  // EventId. Completion callbacks are deliberately left empty: they capture
  // the source's owners, so each fork owner re-installs its own with
  // set_outstanding_done right after this.
  void restore_from(const HttpExchange& src);
  // Re-installs the completion callback of outstanding object `i` (0 = the
  // object currently being served / next to complete).
  void set_outstanding_done(std::size_t i, DoneFn done) {
    objects_[head_ + i].done = std::move(done);
  }

 private:
  struct PendingObject {
    std::uint64_t bytes;
    std::uint64_t queued_at_server = 0;  // bytes handed to conn.send()
    std::uint64_t delivered = 0;
    bool serving = false;
    ObjectResult result;
    DoneFn done;
  };

  void server_pump();
  void on_request_arrival();
  void on_delivered(std::uint64_t bytes, TimePoint when);
  void on_wire(std::uint32_t subflow_id, TimePoint when);
  void pop_front_object();

  Simulator& sim_;
  Connection& conn_;
  Duration request_delay_;
  // FIFO of pending objects as vector + head index: the common single-object
  // download costs one small allocation, where a std::deque would eagerly
  // allocate a 512-byte chunk per connection (measured as the largest
  // per-flow heap line at 100k flows). Completed prefix is compacted away
  // once it dominates the vector.
  std::vector<PendingObject> objects_;
  std::size_t head_ = 0;  // objects_[head_..) are outstanding
  std::uint64_t delivered_total_ = 0;
  // In-flight GET control messages, in issue order (constant delay => FIFO
  // firing). Tracked so the destructor can cancel them — the closures
  // capture `this`, and an exchange torn down under churn used to leave
  // them dangling — and so snapshot forks can rebind them.
  RingDeque<EventId> request_ids_;
  // Liveness flag on the stack of a running on_delivered (else null): a
  // completion callback may destroy this exchange (WebBrowser retires the
  // connection from inside `done`), so the destructor clears the flag and
  // on_delivered stops touching members once it reads false.
  bool* alive_ = nullptr;
};

}  // namespace mps
