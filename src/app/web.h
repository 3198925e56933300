// Web-browsing workload (paper Section 5.5 / 6.3): a 107-object page
// downloaded over six parallel persistent MPTCP connections, as the Android
// browser against the paper's CNN-home-page copy.
//
// Object sizes are drawn once from a seeded heavy-tailed distribution
// calibrated to the 2014 CNN page (~2.4 MB total), so every scheduler
// downloads the identical page. Connections respect the server's 5 s
// keep-alive: an idle connection is torn down and a fresh one (new slow
// start, new subflow joins) opened for the next object assigned to it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "app/http.h"
#include "mptcp/connection.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mps {

struct WebPageConfig {
  int object_count = 107;
  std::uint64_t total_bytes = 2'400'000;
  std::uint64_t min_object_bytes = 400;
  std::uint64_t max_object_bytes = 500'000;
  double lognormal_mu = 9.2;   // median ~10 KB before scaling
  double lognormal_sigma = 1.4;
  int parallel_connections = 6;
  Duration keepalive = Duration::seconds(5);
};

// Deterministic page: `object_count` sizes, re-scaled to `total_bytes`.
std::vector<std::uint64_t> make_page_objects(Rng& rng, const WebPageConfig& config);

class WebBrowser {
 public:
  // The factory returns a fresh connection (unique conn_id, fresh subflows)
  // each call; the browser owns the returned connections.
  using ConnectionFactory = std::function<std::unique_ptr<Connection>()>;

  WebBrowser(Simulator& sim, WebPageConfig config, std::vector<std::uint64_t> objects,
             ConnectionFactory factory);

  void start();
  bool finished() const { return finished_; }
  std::function<void()> on_finished;

  // --- snapshot support (exp/snapshot.h) ------------------------------------
  // Copies page state from `src` and rebuilds this browser's per-slot
  // connections and exchanges as twins of `src`'s live slots — `twin` builds
  // a connection's twin in the fork's world — then re-installs the
  // completion callbacks. Owners re-wire on_finished themselves. Call after
  // the world's event queue has been cloned.
  using TwinFactory = std::function<std::unique_ptr<Connection>(const Connection&)>;
  void restore_from(const WebBrowser& src, const TwinFactory& twin);

  // --- metrics --------------------------------------------------------------
  // Per-object download completion times, seconds (paper Figs. 20/23a).
  const Samples& object_times() const { return object_times_; }
  // Out-of-order delays merged across all connections used (Figs. 21/23b).
  const Samples& ooo_delays() const { return ooo_delays_; }
  Duration page_load_time() const { return page_end_ - page_start_; }
  std::uint64_t iw_resets() const;

 private:
  struct Slot {
    std::unique_ptr<Connection> conn;
    std::unique_ptr<HttpExchange> http;
    TimePoint last_activity = TimePoint::never();
    bool busy = false;
  };

  void assign_next(std::size_t slot_index);
  void ensure_connection(Slot& slot);
  void retire_connection(Slot& slot);

  Simulator& sim_;
  WebPageConfig config_;
  std::vector<std::uint64_t> objects_;
  ConnectionFactory factory_;

  std::vector<Slot> slots_;
  std::size_t next_object_ = 0;
  int outstanding_ = 0;
  bool finished_ = false;
  TimePoint page_start_;
  TimePoint page_end_;

  Samples object_times_;
  Samples ooo_delays_;
  std::uint64_t retired_iw_resets_ = 0;
};

}  // namespace mps
