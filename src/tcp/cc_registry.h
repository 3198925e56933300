// Name<->kind registry for congestion controllers, mirroring sched/registry.
// One parsing point shared by the scenario spec parser, mps_run, benches,
// and examples — no more per-binary string switches.
#pragma once

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "tcp/cc.h"
#include "tcp/cc_balia.h"
#include "tcp/cc_cubic.h"
#include "tcp/cc_lia.h"
#include "tcp/cc_olia.h"
#include "tcp/cc_reno.h"

namespace mps {

// Known names: "reno", "cubic", "lia", "olia", "balia" (same strings
// cc_kind_name returns). Throws std::invalid_argument for unknown names,
// enumerating the registered names in the message.
CcKind cc_kind_from_name(const std::string& name);

// All registered controller names, in kind order.
const std::vector<std::string>& cc_names();

// A controller of any kind held by value: Subflow keeps one inline rather
// than on the heap.
using CcState = std::variant<RenoCc, CubicCc, LiaCc, OliaCc, BaliaCc>;
CcState make_cc_state(CcKind kind);

// The same controller on the heap, for callers that hold the interface.
std::unique_ptr<CongestionController> make_cc(CcKind kind);

}  // namespace mps
