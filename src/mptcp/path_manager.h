// PathManager: mid-connection subflow lifecycle (ROADMAP item 4).
//
// Real MPTCP stacks establish and tear down subflows continuously — a phone
// walks out of WiFi range mid-download, LTE joins late, backup paths sit
// idle until the primary dies. This object drives Connection's
// add_subflow/remove_subflow from a periodic scan tick (the htsim
// subflow_control shape: policies run from a scan loop, never from packet
// stacks, so a subflow is never destroyed under its own ack).
//
// Three policy families compose, all driven from the same tick:
//  * timed actions — a scripted add/remove sequence (break-before-make and
//    make-before-break handover scenarios, scenario `path_manager.events`);
//  * backup promotion — paths held in reserve are established when a live
//    subflow's RTO backoff reaches the outage threshold (the PR 4 outage
//    fault signature);
//  * cap-N growth — subflows are added, round-robin over the growth paths,
//    while the connection has delivered one `bytes_per_subflow` quantum per
//    live subflow and the count is below `max_subflows` (htsim
//    subflow_control's byte-counter threshold).
//
// The tick also finalizes drained subflows, escalates drains stuck past
// `drain_timeout` to abandon-and-remap, and kicks the connection so a newly
// established subflow starts carrying data even when no ack clock runs
// (break-before-make windows have zero live subflows).
#pragma once

#include <cstdint>
#include <vector>

#include "mptcp/connection.h"
#include "net/path.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace mps {

struct PathManagerConfig {
  // Scan period. Every policy decision happens on a tick edge, which is
  // what makes churn deterministic and snapshot-exact.
  Duration tick = Duration::millis(10);
  // A drain stuck longer than this is escalated to abandon-and-remap.
  Duration drain_timeout = Duration::seconds(2);
  // New subflows join one path RTT after the add (MP_JOIN handshake
  // analogue), matching how construction delays secondary joins.
  bool join_delay_rtt = true;

  struct TimedAction {
    enum class Op { kAdd, kRemove };
    TimePoint at;  // executed at the first tick >= at
    Op op = Op::kAdd;
    std::size_t path = 0;  // index into the manager's path list
    Connection::TeardownMode mode = Connection::TeardownMode::kDrain;
  };
  std::vector<TimedAction> actions;  // must be sorted by `at`

  // Backup promotion: paths established only once a live subflow's RTO
  // backoff reaches `promote_after_rtos` consecutive timeouts.
  std::vector<std::size_t> backup_paths;
  int promote_after_rtos = 2;

  // Cap-N growth; 0 disables.
  int max_subflows = 0;
  std::uint64_t bytes_per_subflow = 0;
  std::vector<std::size_t> growth_paths;
};

class PathManager {
 public:
  struct Stats {
    std::uint64_t subflows_added = 0;   // all adds (actions + policies)
    std::uint64_t drains_started = 0;
    std::uint64_t abandons = 0;         // explicit abandon removals
    std::uint64_t drain_timeouts = 0;   // drains escalated to abandon
    std::uint64_t finalized = 0;        // drained slots destroyed
    std::uint64_t promotions = 0;       // backup paths established
    std::uint64_t cap_adds = 0;         // growth-policy adds
  };

  // `paths` is the world's path list in index order (borrowed; must outlive
  // the manager). Every slot the connection starts with must run over one of
  // these paths.
  PathManager(Connection& conn, std::vector<Path*> paths, PathManagerConfig config);
  // Snapshot support (exp/snapshot.h): the twin of `src` managing `conn`
  // (src's connection's twin) over `paths` (the fork's world paths). Copies
  // policy state and adopts the source's pending tick by EventId.
  PathManager(const PathManager& src, Connection& conn, std::vector<Path*> paths);

  // Arms the scan tick. Separate from construction so construction stays
  // event-free (exp/snapshot.h); a twin adopts the source's pending tick
  // instead.
  void start();

  const Stats& stats() const { return stats_; }
  const PathManagerConfig& config() const { return config_; }
  std::size_t live_subflows() const;
  std::size_t draining_subflows() const;

 private:
  void tick();
  void execute_due_actions();
  void escalate_stuck_drains();
  void promote_backups();
  void grow_to_cap();
  std::uint32_t add_on_path(std::size_t path_idx);
  void remove_on_path(std::size_t path_idx, Connection::TeardownMode mode);
  // True when no future tick could do work: all actions executed, nothing
  // draining, and no monitoring policy armed. The tick stops re-arming then
  // so finished runs drain their event queues.
  bool idle() const;
  bool path_has_live_subflow(std::size_t path_idx) const;

  Connection& conn_;
  std::vector<Path*> paths_;
  PathManagerConfig config_;
  Timer tick_timer_;

  std::size_t action_idx_ = 0;          // next unexecuted timed action
  std::size_t growth_cursor_ = 0;       // round-robin over growth_paths
  std::vector<std::size_t> slot_path_idx_;  // per conn slot; grows with adds
  std::vector<TimePoint> drain_started_;    // per slot; never() = not draining
  Stats stats_;
};

}  // namespace mps
