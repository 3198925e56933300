#include "tcp/cc.h"

#include <algorithm>

namespace mps {

void CoupledCcTerms::recompute() {
  // Each controller family keeps its own loop: LIA/BALIA and OLIA filter the
  // sibling set differently, and the aggregates must accumulate in the same
  // per-sibling order the controllers' original private loops used so cached
  // reads stay bit-identical with a fresh recomputation.
  lia_total_cwnd = 0.0;
  lia_best_ratio = 0.0;
  lia_sum_cwnd_over_rtt = 0.0;
  balia_sum_x = 0.0;
  balia_max_x = 0.0;
  for (const auto& s : siblings) {
    if (!s.established || s.srtt_s <= 0.0) continue;
    lia_total_cwnd += s.cwnd;
    lia_best_ratio = std::max(lia_best_ratio, s.cwnd / (s.srtt_s * s.srtt_s));
    lia_sum_cwnd_over_rtt += s.cwnd / s.srtt_s;
    const double x = s.cwnd / s.srtt_s;
    balia_sum_x += x;
    balia_max_x = std::max(balia_max_x, x);
  }

  olia_n = 0;
  olia_sum_cwnd_over_rtt = 0.0;
  olia_best_quality = -1.0;
  olia_max_cwnd = -1.0;
  for (const auto& s : siblings) {
    if (!s.established || s.srtt_s <= 0.0 || s.cwnd <= 0.0) continue;
    ++olia_n;
    olia_sum_cwnd_over_rtt += s.cwnd / s.srtt_s;
    olia_best_quality = std::max(olia_best_quality, olia_quality(s));
    olia_max_cwnd = std::max(olia_max_cwnd, s.cwnd);
  }

  // OLIA set membership (B = best inter-loss quality, M = largest window),
  // compared with a small tolerance since the values are continuous here.
  constexpr double kTol = 1e-6;
  olia_b_minus_m = 0;
  olia_m_count = 0;
  olia_flags.assign(siblings.size(), 0);
  for (std::size_t i = 0; i < siblings.size(); ++i) {
    const CcSiblingInfo& s = siblings[i];
    if (!s.established || s.srtt_s <= 0.0 || s.cwnd <= 0.0) continue;
    const bool in_b = olia_quality(s) >= olia_best_quality * (1.0 - kTol);
    const bool in_m = s.cwnd >= olia_max_cwnd * (1.0 - kTol);
    if (in_m) ++olia_m_count;
    if (in_b && !in_m) ++olia_b_minus_m;
    olia_flags[i] = static_cast<std::uint8_t>(kOliaCounted | (in_b ? kOliaInB : 0) |
                                              (in_m ? kOliaInM : 0));
  }
}

const CoupledCcTerms& CcGroup::coupled_terms() const {
  terms_.siblings.clear();
  cc_sibling_info(terms_.siblings);
  terms_.recompute();
  return terms_;
}

const char* cc_kind_name(CcKind kind) {
  switch (kind) {
    case CcKind::kReno: return "reno";
    case CcKind::kCubic: return "cubic";
    case CcKind::kLia: return "lia";
    case CcKind::kOlia: return "olia";
    case CcKind::kBalia: return "balia";
  }
  return "?";
}

}  // namespace mps
