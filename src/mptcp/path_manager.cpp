#include "mptcp/path_manager.h"

#include <cassert>

namespace mps {

PathManager::PathManager(Connection& conn, std::vector<Path*> paths,
                         PathManagerConfig config)
    : conn_(conn),
      paths_(std::move(paths)),
      config_(std::move(config)),
      tick_timer_(conn.sim()) {
  assert(!paths_.empty());
  assert(config_.tick > Duration::zero());
  for (const auto& action : config_.actions) {
    assert(action.path < paths_.size());
    static_cast<void>(action);
  }
  for (std::size_t p : config_.backup_paths) {
    assert(p < paths_.size());
    static_cast<void>(p);
  }
  for (std::size_t p : config_.growth_paths) {
    assert(p < paths_.size());
    static_cast<void>(p);
  }

  // Record which world path each initial slot runs over by matching the
  // connection's slot paths against our list. Slots over paths outside the
  // list are a wiring error.
  slot_path_idx_.reserve(conn_.slot_count());
  for (std::size_t slot = 0; slot < conn_.slot_count(); ++slot) {
    const Path* slot_path = conn_.slot_path(slot);
    std::size_t idx = paths_.size();
    for (std::size_t p = 0; p < paths_.size(); ++p) {
      if (paths_[p] == slot_path) {
        idx = p;
        break;
      }
    }
    assert(idx < paths_.size() && "connection slot runs over an unmanaged path");
    slot_path_idx_.push_back(idx);
  }
  drain_started_.assign(conn_.slot_count(), TimePoint::never());
}

PathManager::PathManager(const PathManager& src, Connection& conn, std::vector<Path*> paths)
    : conn_(conn),
      paths_(std::move(paths)),
      config_(src.config_),
      tick_timer_(src.tick_timer_, conn.sim(), [this] { tick(); }),
      action_idx_(src.action_idx_),
      growth_cursor_(src.growth_cursor_),
      slot_path_idx_(src.slot_path_idx_),
      drain_started_(src.drain_started_),
      stats_(src.stats_) {
  assert(paths_.size() == src.paths_.size());
  assert(conn_.slot_count() == src.conn_.slot_count());
}

void PathManager::start() { tick_timer_.schedule_after(config_.tick, [this] { tick(); }); }

std::size_t PathManager::live_subflows() const {
  std::size_t n = 0;
  for (std::size_t slot = 0; slot < conn_.slot_count(); ++slot) {
    const Subflow* sf = conn_.subflow_at(slot);
    if (sf != nullptr && !sf->draining()) ++n;
  }
  return n;
}

std::size_t PathManager::draining_subflows() const {
  std::size_t n = 0;
  for (std::size_t slot = 0; slot < conn_.slot_count(); ++slot) {
    const Subflow* sf = conn_.subflow_at(slot);
    if (sf != nullptr && sf->draining()) ++n;
  }
  return n;
}

bool PathManager::path_has_live_subflow(std::size_t path_idx) const {
  for (std::size_t slot = 0; slot < conn_.slot_count(); ++slot) {
    const Subflow* sf = conn_.subflow_at(slot);
    if (sf != nullptr && !sf->draining() && slot_path_idx_[slot] == path_idx) return true;
  }
  return false;
}

std::uint32_t PathManager::add_on_path(std::size_t path_idx) {
  Path& path = *paths_[path_idx];
  const Duration join_delay =
      config_.join_delay_rtt ? path.rtt_base() : Duration::zero();
  const std::uint32_t id = conn_.add_subflow(path, join_delay);
  // add_subflow appends exactly one slot; mirror it in our per-slot arrays.
  assert(conn_.slot_count() == slot_path_idx_.size() + 1);
  slot_path_idx_.push_back(path_idx);
  drain_started_.push_back(TimePoint::never());
  ++stats_.subflows_added;
  return id;
}

void PathManager::remove_on_path(std::size_t path_idx, Connection::TeardownMode mode) {
  // Tear down every live subflow the path carries (usually one). Draining
  // slots are already on their way out; abandon requests still escalate them.
  for (std::size_t slot = 0; slot < conn_.slot_count(); ++slot) {
    const Subflow* sf = conn_.subflow_at(slot);
    if (sf == nullptr || slot_path_idx_[slot] != path_idx) continue;
    if (sf->draining() && mode == Connection::TeardownMode::kDrain) continue;
    conn_.remove_subflow(static_cast<std::uint32_t>(slot), mode);
    if (conn_.subflow_at(slot) == nullptr) {
      // Abandon (or an already-drained drain request) finalized in place.
      drain_started_[slot] = TimePoint::never();
      ++stats_.abandons;
    } else {
      drain_started_[slot] = conn_.sim().now();
      ++stats_.drains_started;
    }
  }
}

void PathManager::execute_due_actions() {
  const TimePoint now = conn_.sim().now();
  while (action_idx_ < config_.actions.size() && config_.actions[action_idx_].at <= now) {
    const auto& action = config_.actions[action_idx_];
    if (action.op == PathManagerConfig::TimedAction::Op::kAdd) {
      add_on_path(action.path);
    } else {
      remove_on_path(action.path, action.mode);
    }
    ++action_idx_;
  }
}

void PathManager::escalate_stuck_drains() {
  const TimePoint now = conn_.sim().now();
  for (std::size_t slot = 0; slot < drain_started_.size(); ++slot) {
    if (drain_started_[slot].is_never()) continue;
    const Subflow* sf = conn_.subflow_at(slot);
    if (sf == nullptr || !sf->draining()) {
      drain_started_[slot] = TimePoint::never();
      continue;
    }
    if (now - drain_started_[slot] >= config_.drain_timeout) {
      // The drain is stuck — typically the path died under it and its
      // retransmissions go nowhere. Abandon: unacked ranges remap to the
      // surviving subflows.
      conn_.remove_subflow(static_cast<std::uint32_t>(slot),
                           Connection::TeardownMode::kAbandon);
      drain_started_[slot] = TimePoint::never();
      ++stats_.drain_timeouts;
    }
  }
}

void PathManager::promote_backups() {
  if (config_.backup_paths.empty()) return;
  bool outage = false;
  for (std::size_t slot = 0; slot < conn_.slot_count(); ++slot) {
    const Subflow* sf = conn_.subflow_at(slot);
    if (sf != nullptr && !sf->draining() &&
        sf->rto_backoff() >= config_.promote_after_rtos) {
      outage = true;
      break;
    }
  }
  if (!outage) return;
  // One promotion per tick: establish the first backup path not already
  // carrying a live subflow. A promoted path that later dies re-qualifies.
  for (std::size_t p : config_.backup_paths) {
    if (path_has_live_subflow(p)) continue;
    add_on_path(p);
    ++stats_.promotions;
    return;
  }
}

void PathManager::grow_to_cap() {
  if (config_.max_subflows <= 0 || config_.growth_paths.empty()) return;
  const std::size_t live = live_subflows();
  if (live >= static_cast<std::size_t>(config_.max_subflows)) return;
  // htsim subflow_control's byte-counter threshold: one subflow per
  // `bytes_per_subflow` quantum of delivered data, one add per tick.
  const std::uint64_t quanta = config_.bytes_per_subflow > 0
                                   ? conn_.delivered_bytes() / config_.bytes_per_subflow
                                   : static_cast<std::uint64_t>(config_.max_subflows);
  if (quanta + 1 <= live) return;
  add_on_path(config_.growth_paths[growth_cursor_ % config_.growth_paths.size()]);
  ++growth_cursor_;
  ++stats_.cap_adds;
}

bool PathManager::idle() const {
  if (action_idx_ < config_.actions.size()) return false;
  if (draining_subflows() > 0) return false;
  if (!config_.backup_paths.empty()) return false;
  if (config_.max_subflows > 0 && !config_.growth_paths.empty() &&
      live_subflows() < static_cast<std::size_t>(config_.max_subflows)) {
    return false;
  }
  return true;
}

void PathManager::tick() {
  execute_due_actions();
  escalate_stuck_drains();
  stats_.finalized += conn_.finalize_drained();
  promote_backups();
  grow_to_cap();
  // Restart scheduling: after a break-before-make window no ack clock runs,
  // and a freshly joined subflow would otherwise idle until one does.
  conn_.kick();
  if (!idle()) tick_timer_.schedule_after(config_.tick, [this] { tick(); });
}

}  // namespace mps
