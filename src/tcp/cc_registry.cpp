#include "tcp/cc_registry.h"

#include <stdexcept>

namespace mps {

namespace {
constexpr CcKind kAllKinds[] = {CcKind::kReno, CcKind::kCubic, CcKind::kLia, CcKind::kOlia,
                                CcKind::kBalia};
}

CcKind cc_kind_from_name(const std::string& name) {
  for (CcKind kind : kAllKinds) {
    if (name == cc_kind_name(kind)) return kind;
  }
  std::string known;
  for (CcKind kind : kAllKinds) {
    if (!known.empty()) known += ", ";
    known += cc_kind_name(kind);
  }
  throw std::invalid_argument("unknown congestion control \"" + name + "\" (known: " + known +
                              ")");
}

CcState make_cc_state(CcKind kind) {
  switch (kind) {
    case CcKind::kReno: return RenoCc{};
    case CcKind::kCubic: return CubicCc{};
    case CcKind::kLia: return LiaCc{};
    case CcKind::kOlia: return OliaCc{};
    case CcKind::kBalia: return BaliaCc{};
  }
  return RenoCc{};
}

std::unique_ptr<CongestionController> make_cc(CcKind kind) {
  return std::visit(
      [](const auto& cc) -> std::unique_ptr<CongestionController> {
        return std::make_unique<std::decay_t<decltype(cc)>>(cc);
      },
      make_cc_state(kind));
}

const std::vector<std::string>& cc_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (CcKind kind : kAllKinds) out.emplace_back(cc_kind_name(kind));
    return out;
  }();
  return names;
}

}  // namespace mps
