// Tests for the congestion controllers: Reno, CUBIC, LIA, OLIA, BALIA.
// The closed-form tests recompute each controller's published update rule
// (RFC 8312 for CUBIC, RFC 6356 for LIA, Khalili et al. for OLIA,
// Peng/Walid/Hwang/Low for BALIA) independently in the test body and
// compare against the implementation — a differential check that the code
// matches the paper math, not just itself.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "tcp/cc.h"
#include "tcp/cc_balia.h"
#include "tcp/cc_cubic.h"
#include "tcp/cc_lia.h"
#include "tcp/cc_olia.h"
#include "tcp/cc_registry.h"
#include "tcp/cc_reno.h"

namespace mps {
namespace {

// A fixed group of subflows for coupled-controller tests.
class FakeGroup final : public CcGroup {
 public:
  std::vector<CcSiblingInfo> siblings;
  void cc_sibling_info(std::vector<CcSiblingInfo>& out) const override { out = siblings; }
};

CongestionController::AckContext ctx_of(double cwnd, double rtt_s,
                                        const CcGroup* group = nullptr,
                                        std::uint32_t self = 0) {
  CongestionController::AckContext ctx;
  ctx.self_id = self;
  ctx.cwnd = cwnd;
  ctx.ssthresh = 1e9;
  ctx.srtt_s = rtt_s;
  ctx.group = group;
  ctx.now = TimePoint::from_ns(1'000'000'000);
  return ctx;
}

CcSiblingInfo sibling(std::uint32_t id, double cwnd, double rtt_s,
                      double inter_loss = 1e6) {
  CcSiblingInfo s;
  s.subflow_id = id;
  s.cwnd = cwnd;
  s.srtt_s = rtt_s;
  s.established = true;
  s.inter_loss_bytes = inter_loss;
  return s;
}

// --- Reno ---------------------------------------------------------------------

TEST(RenoTest, OneSegmentPerWindow) {
  RenoCc cc;
  EXPECT_DOUBLE_EQ(cc.ca_increase(ctx_of(10, 0.1)), 0.1);
  EXPECT_DOUBLE_EQ(cc.ca_increase(ctx_of(100, 0.1)), 0.01);
}

TEST(RenoTest, HalvesOnLoss) {
  RenoCc cc;
  EXPECT_DOUBLE_EQ(cc.loss_factor(), 0.5);
}

// --- CUBIC --------------------------------------------------------------------

TEST(CubicTest, Beta07) {
  CubicCc cc;
  EXPECT_DOUBLE_EQ(cc.loss_factor(), 0.7);
}

TEST(CubicTest, GrowsTowardWmaxAfterLoss) {
  CubicCc cc;
  auto ctx = ctx_of(100, 0.05);
  cc.on_loss_event(ctx);  // w_max ~ 100
  // Immediately after the loss epoch starts, growth is slow near the
  // plateau and positive.
  ctx.cwnd = 70;
  const double inc_early = cc.ca_increase(ctx);
  EXPECT_GT(inc_early, 0.0);
  // Much later in the epoch, the cubic term dominates and growth is faster.
  ctx.now = ctx.now + Duration::seconds(10);
  ctx.cwnd = 100;
  const double inc_late = cc.ca_increase(ctx);
  EXPECT_GT(inc_late, inc_early);
}

TEST(CubicTest, PerAckIncreaseCapped) {
  CubicCc cc;
  auto ctx = ctx_of(1.0, 0.5);
  cc.on_loss_event(ctx_of(200, 0.5));
  ctx.now = ctx.now + Duration::seconds(100);
  EXPECT_LE(cc.ca_increase(ctx), 0.5);
}

TEST(CubicTest, MatchesRfc8312ClosedForm) {
  // Recompute W_cubic(t) and W_est(t) from RFC 8312 sections 4.1-4.2 by
  // hand and check the per-ack increase (W_target - cwnd) / cwnd matches.
  constexpr double kC = 0.4, kBeta = 0.7;
  const double w_max = 100.0, rtt = 0.05;
  CubicCc cc;
  auto loss = ctx_of(w_max, rtt);
  cc.on_loss_event(loss);
  auto ctx = ctx_of(80.0, rtt);
  (void)cc.ca_increase(ctx);  // starts the epoch at ctx.now
  ctx.now = ctx.now + Duration::seconds(10);
  ctx.cwnd = 160.0;
  const double t = 10.0 + rtt;  // epoch elapsed plus one srtt lookahead
  const double k = std::cbrt(w_max * (1.0 - kBeta) / kC);
  const double w_cubic = kC * std::pow(t - k, 3.0) + w_max;
  const double w_est =
      w_max * kBeta + (3.0 * (1.0 - kBeta) / (1.0 + kBeta)) * (t / rtt);
  const double target = std::max(w_cubic, w_est);
  ASSERT_GT(target, ctx.cwnd);  // the test is vacuous in the floor branch
  const double expected = std::min((target - ctx.cwnd) / ctx.cwnd, 0.5);
  EXPECT_NEAR(cc.ca_increase(ctx), expected, 1e-9);
}

TEST(CubicTest, FastConvergenceShrinksWmaxOnBackToBackLosses) {
  // RFC 8312 4.6: a loss below the previous plateau remembers
  // cwnd * (2 - beta) / 2 instead of cwnd.
  CubicCc cc;
  cc.on_loss_event(ctx_of(100.0, 0.05));
  cc.on_loss_event(ctx_of(60.0, 0.05));  // 60 < 100 -> w_max = 60 * 0.65 = 39
  auto ctx = ctx_of(10.0, 0.05);
  (void)cc.ca_increase(ctx);  // epoch starts; k derives from w_max = 39
  ctx.now = ctx.now + Duration::seconds(5);
  const double t = 5.0 + 0.05;
  const double w_max = 60.0 * (2.0 - 0.7) / 2.0;
  const double k = std::cbrt(w_max * 0.3 / 0.4);
  const double w_cubic = 0.4 * std::pow(t - k, 3.0) + w_max;
  const double w_est = w_max * 0.7 + (3.0 * 0.3 / 1.7) * (t / 0.05);
  const double target = std::max(w_cubic, w_est);
  ASSERT_GT(target, ctx.cwnd);
  EXPECT_NEAR(cc.ca_increase(ctx), std::min((target - 10.0) / 10.0, 0.5), 1e-9);
}

TEST(CubicTest, ResetClearsEpoch) {
  CubicCc cc;
  auto ctx = ctx_of(50, 0.05);
  cc.on_loss_event(ctx);
  cc.reset();
  // After reset the controller behaves as fresh (no crash, positive inc).
  EXPECT_GT(cc.ca_increase(ctx), 0.0);
}

// --- LIA ----------------------------------------------------------------------

TEST(LiaTest, SinglePathReducesToReno) {
  LiaCc cc;
  FakeGroup group;
  group.siblings = {sibling(0, 10, 0.1)};
  const double inc = cc.ca_increase(ctx_of(10, 0.1, &group, 0));
  EXPECT_NEAR(inc, 1.0 / 10.0, 1e-9);
}

TEST(LiaTest, NoGroupReducesToReno) {
  LiaCc cc;
  EXPECT_NEAR(cc.ca_increase(ctx_of(25, 0.1)), 1.0 / 25.0, 1e-12);
}

TEST(LiaTest, CoupledIncreaseNeverExceedsReno) {
  LiaCc cc;
  FakeGroup group;
  group.siblings = {sibling(0, 10, 0.1), sibling(1, 50, 0.05)};
  const double inc = cc.ca_increase(ctx_of(10, 0.1, &group, 0));
  EXPECT_LE(inc, 1.0 / 10.0 + 1e-12);
  EXPECT_GT(inc, 0.0);
}

TEST(LiaTest, MatchesRfc6356Alpha) {
  LiaCc cc;
  FakeGroup group;
  group.siblings = {sibling(0, 10, 0.1), sibling(1, 40, 0.05)};
  // alpha = tot * max(w_i/rtt_i^2) / (sum w_i/rtt_i)^2
  const double tot = 50.0;
  const double best = std::max(10.0 / 0.01, 40.0 / 0.0025);
  const double sum = 10.0 / 0.1 + 40.0 / 0.05;
  const double alpha = tot * best / (sum * sum);
  const double expected = std::min(alpha / tot, 1.0 / 10.0);
  EXPECT_NEAR(cc.ca_increase(ctx_of(10, 0.1, &group, 0)), expected, 1e-9);
}

TEST(LiaTest, IgnoresUnestablishedSiblings) {
  LiaCc cc;
  FakeGroup group;
  group.siblings = {sibling(0, 10, 0.1)};
  CcSiblingInfo dead = sibling(1, 1000, 0.001);
  dead.established = false;
  group.siblings.push_back(dead);
  EXPECT_NEAR(cc.ca_increase(ctx_of(10, 0.1, &group, 0)), 0.1, 1e-9);
}

// --- OLIA ---------------------------------------------------------------------

TEST(OliaTest, SinglePathApproximatesReno) {
  OliaCc cc;
  FakeGroup group;
  group.siblings = {sibling(0, 10, 0.1)};
  EXPECT_NEAR(cc.ca_increase(ctx_of(10, 0.1, &group, 0)), 1.0 / 10.0, 1e-9);
}

TEST(OliaTest, CollectedPathGetsBoost) {
  OliaCc cc;
  FakeGroup group;
  // Path 0: high quality (large inter-loss), small window -> in B \ M.
  // Path 1: max window, lower quality.
  group.siblings = {sibling(0, 10, 0.1, 1e9), sibling(1, 100, 0.1, 1e3)};
  const double inc_collected = cc.ca_increase(ctx_of(10, 0.1, &group, 0));
  const double base = (10.0 / 0.01) / std::pow(10.0 / 0.1 + 100.0 / 0.1, 2.0);
  EXPECT_GT(inc_collected, base);
}

TEST(OliaTest, MaxWindowPathGetsPenalty) {
  OliaCc cc;
  FakeGroup group;
  group.siblings = {sibling(0, 10, 0.1, 1e9), sibling(1, 100, 0.1, 1e3)};
  const double inc_max = cc.ca_increase(ctx_of(100, 0.1, &group, 1));
  const double base = (100.0 / 0.01) / std::pow(10.0 / 0.1 + 100.0 / 0.1, 2.0);
  EXPECT_LT(inc_max, base);
  EXPECT_GE(inc_max, 0.0);  // clamped non-negative
}

TEST(OliaTest, MatchesKhaliliClosedForm) {
  // Two paths, hand-evaluated: path 0 is the best-quality path (in B \ M),
  // path 1 holds the max window (in M). n = 2, |B \ M| = 1, |M| = 1, so
  // alpha_0 = +1/2 and alpha_1 = -1/2; the increase is
  //   cwnd_r / rtt_r^2 / (sum_p cwnd_p / rtt_p)^2 + alpha_r / cwnd_r.
  OliaCc cc;
  FakeGroup group;
  group.siblings = {sibling(0, 10, 0.1, 1e9), sibling(1, 100, 0.1, 1e3)};
  const double sum = 10.0 / 0.1 + 100.0 / 0.1;
  const double expected0 = (10.0 / (0.1 * 0.1)) / (sum * sum) + 0.5 / 10.0;
  const double expected1 = (100.0 / (0.1 * 0.1)) / (sum * sum) - 0.5 / 100.0;
  EXPECT_NEAR(cc.ca_increase(ctx_of(10, 0.1, &group, 0)), expected0, 1e-12);
  EXPECT_NEAR(cc.ca_increase(ctx_of(100, 0.1, &group, 1)), expected1, 1e-12);
}

TEST(OliaTest, SymmetricPathsNoAlpha) {
  OliaCc cc;
  FakeGroup group;
  group.siblings = {sibling(0, 20, 0.1, 1e6), sibling(1, 20, 0.1, 1e6)};
  // B == M (both best and max): alpha = 0 for everyone.
  const double base = (20.0 / 0.01) / std::pow(2 * 20.0 / 0.1, 2.0);
  EXPECT_NEAR(cc.ca_increase(ctx_of(20, 0.1, &group, 0)), base, 1e-9);
}

// --- BALIA --------------------------------------------------------------------

TEST(BaliaTest, SinglePathReducesToReno) {
  // With one path alpha = 1, so the increase collapses to
  // (x/rtt)/x^2 * 1 * 1 = 1/cwnd and the decrease to a plain halving.
  BaliaCc cc;
  FakeGroup group;
  group.siblings = {sibling(0, 10, 0.1)};
  EXPECT_NEAR(cc.ca_increase(ctx_of(10, 0.1, &group, 0)), 1.0 / 10.0, 1e-12);
  cc.on_loss_event(ctx_of(10, 0.1, &group, 0));
  EXPECT_DOUBLE_EQ(cc.loss_factor(), 0.5);
}

TEST(BaliaTest, NoGroupReducesToReno) {
  BaliaCc cc;
  EXPECT_NEAR(cc.ca_increase(ctx_of(25, 0.1)), 1.0 / 25.0, 1e-12);
  EXPECT_DOUBLE_EQ(cc.loss_factor(), 0.5);
}

TEST(BaliaTest, CoupledTwoSubflowMatchesClosedForm) {
  // Hand-evaluated Peng et al. update: x_0 = 10/0.1 = 100, x_1 = 40/0.05
  // = 800, so path 0 (the slow one) sees alpha_0 = 800/100 = 8 and path 1
  // (the fast one) alpha_1 = 1. Increase per ack on r:
  //   (x_r / rtt_r) / (sum x)^2 * ((1 + alpha)/2) * ((4 + alpha)/5).
  BaliaCc cc;
  FakeGroup group;
  group.siblings = {sibling(0, 10, 0.1), sibling(1, 40, 0.05)};
  const double sum_x = 100.0 + 800.0;
  const double a0 = 8.0, a1 = 1.0;
  const double expected0 =
      (100.0 / 0.1) / (sum_x * sum_x) * ((1.0 + a0) / 2.0) * ((4.0 + a0) / 5.0);
  const double expected1 =
      (800.0 / 0.05) / (sum_x * sum_x) * ((1.0 + a1) / 2.0) * ((4.0 + a1) / 5.0);
  EXPECT_NEAR(cc.ca_increase(ctx_of(10, 0.1, &group, 0)), expected0, 1e-12);
  EXPECT_NEAR(cc.ca_increase(ctx_of(40, 0.05, &group, 1)), expected1, 1e-12);
}

TEST(BaliaTest, LossFactorTracksAlphaAtLossAndIsBounded) {
  BaliaCc cc;
  FakeGroup group;
  group.siblings = {sibling(0, 10, 0.1), sibling(1, 40, 0.05)};
  // Slow path: alpha = 8, clipped to 1.5 -> keep 1 - 1.5/2 = 0.25.
  cc.on_loss_event(ctx_of(10, 0.1, &group, 0));
  EXPECT_DOUBLE_EQ(cc.loss_factor(), 0.25);
  // Fast path: alpha = 1 -> plain halving.
  cc.on_loss_event(ctx_of(40, 0.05, &group, 1));
  EXPECT_DOUBLE_EQ(cc.loss_factor(), 0.5);
  // A mid ratio lands strictly between the bounds: alpha = 800/600 = 4/3.
  group.siblings = {sibling(0, 60, 0.1), sibling(1, 40, 0.05)};
  cc.on_loss_event(ctx_of(60, 0.1, &group, 0));
  EXPECT_NEAR(cc.loss_factor(), 1.0 - (4.0 / 3.0) / 2.0, 1e-12);
  // reset() forgets the captured alpha; a copy (a forked subflow's
  // controller) keeps it.
  cc.on_loss_event(ctx_of(10, 0.1, &group, 0));
  const BaliaCc copy = cc;
  EXPECT_DOUBLE_EQ(copy.loss_factor(), cc.loss_factor());
  cc.reset();
  EXPECT_DOUBLE_EQ(cc.loss_factor(), 0.5);
}

TEST(BaliaTest, IgnoresUnestablishedSiblings) {
  BaliaCc cc;
  FakeGroup group;
  group.siblings = {sibling(0, 10, 0.1)};
  CcSiblingInfo dead = sibling(1, 1000, 0.001);
  dead.established = false;
  group.siblings.push_back(dead);
  EXPECT_NEAR(cc.ca_increase(ctx_of(10, 0.1, &group, 0)), 1.0 / 10.0, 1e-12);
}

// --- factory / registry -------------------------------------------------------

TEST(CcFactoryTest, MakesAllKinds) {
  for (CcKind kind :
       {CcKind::kReno, CcKind::kCubic, CcKind::kLia, CcKind::kOlia, CcKind::kBalia}) {
    auto cc = make_cc(kind);
    ASSERT_NE(cc, nullptr);
    EXPECT_STREQ(cc->name(), cc_kind_name(kind));
  }
}

TEST(CcRegistryTest, NamesRoundTripThroughTheFactory) {
  // cc_names() must stay in sync with what the factory can build: every
  // listed name parses, builds, and reports itself under the same name.
  for (const std::string& name : cc_names()) {
    const CcKind kind = cc_kind_from_name(name);
    auto cc = make_cc(kind);
    ASSERT_NE(cc, nullptr) << name;
    EXPECT_EQ(std::string(cc->name()), name);
  }
  EXPECT_EQ(cc_names().size(), 5u);
}

TEST(CcRegistryTest, UnknownNameErrorEnumeratesEveryRegisteredName) {
  try {
    cc_kind_from_name("bbr");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bbr"), std::string::npos);
    for (const std::string& name : cc_names()) {
      EXPECT_NE(what.find(name), std::string::npos) << name;
    }
  }
}

}  // namespace
}  // namespace mps
