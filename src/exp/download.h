// Simple-download (wget) experiment runner: one object over a fresh MPTCP
// connection (paper Section 5.4).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exp/run.h"
#include "util/stats.h"
#include "util/time.h"

namespace mps {

struct DownloadParams : RunParams {
  std::uint64_t bytes = 512 * 1024;
};

struct DownloadResult {
  Duration completion = Duration::zero();
  double fraction_fast = 0.0;
  Samples ooo_delay;
  // Payload bytes sent per world path (index order), live + retired subflows.
  std::vector<std::uint64_t> path_bytes;
  // Segments re-scheduled after an abandon teardown (meta_stats mirror).
  std::uint64_t remapped_segments = 0;
  // The run reached its 600 s safety cap before the download completed;
  // completion then stays zero and must not be read as a time.
  bool capped = false;
};

// One download run held as an object so it can be paused mid-simulation and
// forked (exp/snapshot.h). run_download() is construct + start + finish.
class DownloadRun final : public RunShell {
 public:
  explicit DownloadRun(const DownloadParams& params);
  ~DownloadRun() override;

  using RunShell::connection;
  using RunShell::path_manager;

  // Independent copy at the current simulation time (see StreamingRun::fork).
  std::unique_ptr<DownloadRun> fork() const;

  // Runs to completion (or the cap) and gathers the result.
  DownloadResult finish();

 private:
  DownloadRun(const DownloadRun& src, ForkTag);
  void construct(bool fork_shell);
  void begin() override;
  void install_done();

  DownloadParams params_;
  DownloadResult res_;
};

DownloadResult run_download(const DownloadParams& params);

}  // namespace mps
