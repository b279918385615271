// Fairness thresholds: the profitability frontier of the optimal attack.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/threshold.hpp"
#include "support/check.hpp"

namespace {

analysis::ThresholdOptions fast_options() {
  analysis::ThresholdOptions options;
  options.analysis.epsilon = 1e-4;
  options.p_tolerance = 0.01;
  return options;
}

TEST(Threshold, DepthOneGammaZeroIsAlwaysFair) {
  // With γ = 0 the d=f=1 adversary can do no better than honest mining at
  // any resource level (Figure 2a: the curves coincide).
  const selfish::AttackParams base{.p = 0.0, .gamma = 0.0, .d = 1, .f = 1, .l = 4};
  const auto result = analysis::fairness_threshold(base, fast_options());
  EXPECT_TRUE(result.always_fair);
}

TEST(Threshold, DepthTwoUnfairAlmostImmediately) {
  // d=2, f=2 earns an excess already at small p (Figure 2c).
  const selfish::AttackParams base{.p = 0.0, .gamma = 0.5, .d = 2, .f = 2, .l = 4};
  const auto result = analysis::fairness_threshold(base, fast_options());
  ASSERT_FALSE(result.always_fair);
  EXPECT_GT(result.p_threshold, 0.0);
  EXPECT_LT(result.p_threshold, 0.12);
  EXPECT_LE(result.p_hi - result.p_lo, 0.01 + 1e-12);
}

TEST(Threshold, DepthOneThresholdShrinksWithGamma) {
  // The paper's d=f=1 takeaway: pays off only for large γ and sizable p.
  // At γ = 0.75 the frontier sits near the paper's "p > 0.25"; at γ = 1
  // (every race won) withholding pays much earlier.
  const selfish::AttackParams g75{.p = 0.0, .gamma = 0.75, .d = 1, .f = 1, .l = 4};
  const auto at75 = analysis::fairness_threshold(g75, fast_options());
  ASSERT_FALSE(at75.always_fair);
  EXPECT_GT(at75.p_threshold, 0.15);
  EXPECT_LT(at75.p_threshold, 0.32);

  const selfish::AttackParams g100{.p = 0.0, .gamma = 1.0, .d = 1, .f = 1, .l = 4};
  const auto at100 = analysis::fairness_threshold(g100, fast_options());
  ASSERT_FALSE(at100.always_fair);
  EXPECT_LT(at100.p_threshold, at75.p_threshold);
}

TEST(Threshold, FriendlierNetworkLowersTheThreshold) {
  const selfish::AttackParams gamma0{.p = 0.0, .gamma = 0.0, .d = 2, .f = 1, .l = 4};
  const selfish::AttackParams gamma1{.p = 0.0, .gamma = 1.0, .d = 2, .f = 1, .l = 4};
  const auto at0 = analysis::fairness_threshold(gamma0, fast_options());
  const auto at1 = analysis::fairness_threshold(gamma1, fast_options());
  ASSERT_FALSE(at0.always_fair);
  ASSERT_FALSE(at1.always_fair);
  EXPECT_LE(at1.p_threshold, at0.p_threshold + 0.01);
}

TEST(Threshold, ProbesAreRecordedAndConsistent) {
  const selfish::AttackParams base{.p = 0.0, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  const auto result = analysis::fairness_threshold(base, fast_options());
  ASSERT_FALSE(result.probes.empty());
  for (const auto& probe : result.probes) {
    EXPECT_EQ(probe.unfair, probe.errev - probe.p > 0.005);
  }
  ASSERT_FALSE(result.always_fair);
  EXPECT_LT(result.p_lo, result.p_hi);
}

TEST(Threshold, ToleranceBelowDoubleSpacingTerminates) {
  // The d=2,f=1 frontier lies near p = 0.054, where adjacent doubles are
  // ~6.9e-18 apart: a 1e-17 tolerance already bisects down to neighbouring
  // doubles, and 1e-300 must stop at the same bracket rather than probe
  // the same p forever.
  const selfish::AttackParams base{.p = 0.0, .gamma = 0.5, .d = 2, .f = 1, .l = 3};
  analysis::ThresholdOptions options;
  options.p_tolerance = 1e-17;
  const auto reference = analysis::fairness_threshold(base, options);
  options.p_tolerance = 1e-300;
  const auto tiny = analysis::fairness_threshold(base, options);
  ASSERT_FALSE(tiny.always_fair);
  EXPECT_EQ(tiny.p_lo, reference.p_lo);
  EXPECT_EQ(tiny.p_hi, reference.p_hi);
  EXPECT_EQ(tiny.probes.size(), reference.probes.size());
  EXPECT_EQ(std::nextafter(tiny.p_lo, 1.0), tiny.p_hi);
}

TEST(Threshold, RejectsBadOptions) {
  const selfish::AttackParams base{.p = 0.0, .gamma = 0.5, .d = 1, .f = 1, .l = 4};
  analysis::ThresholdOptions options;
  options.unfairness_margin = 0.0;
  EXPECT_THROW(analysis::fairness_threshold(base, options),
               support::InvalidArgument);
  options = {};
  options.p_max = 1.5;
  EXPECT_THROW(analysis::fairness_threshold(base, options),
               support::InvalidArgument);
}

}  // namespace
