// Shared test helpers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mptcp/connection.h"
#include "net/path.h"
#include "scenario/world.h"

namespace mps {

inline std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The *.json files in `dir` (the presets: scenarios/), sorted.
inline std::vector<std::filesystem::path> json_files(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

// The paper testbed's two paths at the given downlink rates: wifi (primary)
// and lte, each the unmodified technology profile.
inline std::vector<PathConfig> two_paths(double wifi_mbps = 8.6, double lte_mbps = 8.6) {
  return {wifi_profile(Rate::mbps(wifi_mbps)), lte_profile(Rate::mbps(lte_mbps))};
}

inline WorldConfig two_path_config(double wifi_mbps = 8.6, double lte_mbps = 8.6) {
  WorldConfig c;
  c.paths = two_paths(wifi_mbps, lte_mbps);
  return c;
}

// Streams `total` bytes through a connection's bounded send buffer, refilling
// from on_sendable as space frees (what a real sending application does).
class BulkSender {
 public:
  BulkSender(Connection& conn, std::uint64_t total) : conn_(conn), remaining_(total) {
    conn_.on_sendable = [this] { push(); };
    push();
  }

  void push() {
    if (remaining_ == 0) return;
    remaining_ -= conn_.send(remaining_);
  }

  std::uint64_t remaining() const { return remaining_; }

 private:
  Connection& conn_;
  std::uint64_t remaining_;
};

}  // namespace mps
