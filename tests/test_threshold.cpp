// Fairness thresholds: the profitability frontier of the optimal attack.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "analysis/algorithm1.hpp"
#include "analysis/render.hpp"
#include "analysis/threshold.hpp"
#include "selfish/build.hpp"
#include "support/check.hpp"

namespace {

analysis::ThresholdOptions fast_options() {
  analysis::ThresholdOptions options;
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

TEST(Threshold, ProbesAgreeWithAlgorithm1) {
  // Each probe's sign solve answers "ERRev*(p) > p + margin?", so a full
  // Algorithm 1 bracket at the probe's p that lies wholly on one side of
  // p + margin decides the probe the same way.
  const selfish::AttackParams base{.p = 0.0, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  const analysis::ThresholdOptions options = fast_options();
  const auto result = analysis::fairness_threshold(base, options);
  ASSERT_FALSE(result.probes.empty());
  std::size_t decided = 0;
  for (const auto& probe : result.probes) {
    SCOPED_TRACE(probe.p);
    EXPECT_LE(probe.gain_lo, probe.gain_hi);
    EXPECT_EQ(probe.unfair, probe.gain_lo > 0.0);
    selfish::AttackParams params = base;
    params.p = probe.p;
    const auto bracket = analysis::analyze(selfish::build_model(params));
    const double beta = probe.p + options.unfairness_margin;
    if (bracket.beta_lo > beta) {
      EXPECT_TRUE(probe.unfair);
      ++decided;
    }
    if (bracket.beta_hi < beta) {
      EXPECT_FALSE(probe.unfair);
      ++decided;
    }
  }
  // No probe here lies within ε of the frontier, so every one is checked.
  EXPECT_EQ(decided, result.probes.size());
  ASSERT_FALSE(result.always_fair);
  EXPECT_LT(result.p_lo, result.p_hi);
}

TEST(Threshold, TiedProbeCountsAsFair) {
  // A solver tolerance of 1 certifies the gain only to within 1, so the
  // interval at the top of the range straddles 0: the sign is undecided,
  // and an undecided probe counts as fair.
  const selfish::AttackParams base{.p = 0.0, .gamma = 0.5, .d = 2, .f = 2, .l = 4};
  analysis::ThresholdOptions options;
  options.solver.mean_payoff.tol = 1.0;
  const auto result = analysis::fairness_threshold(base, options);
  EXPECT_TRUE(result.always_fair);
  ASSERT_EQ(result.probes.size(), 1u);
  const analysis::ThresholdProbe& probe = result.probes.front();
  EXPECT_EQ(probe.p, analysis::ThresholdOptions::kPMax);
  EXPECT_LE(probe.gain_lo, 0.0);
  EXPECT_GE(probe.gain_hi, 0.0);
  EXPECT_FALSE(probe.unfair);
}

TEST(Threshold, ReportsArePinned) {
  const analysis::ThresholdOptions options;
  const auto report = [&](int d, int f) {
    const selfish::AttackParams base{.p = 0.0, .gamma = 0.5, .d = d, .f = f, .l = 4};
    return analysis::render_threshold_report(
        options, analysis::fairness_threshold(base, options));
  };
  EXPECT_EQ(report(2, 2),
            "attack becomes profitable at p ~= 0.0545 "
            "(bracket [0.0527, 0.0563], 8 probes)\n");
  EXPECT_EQ(report(3, 1),
            "attack becomes profitable at p ~= 0.0510 "
            "(bracket [0.0492, 0.0527], 8 probes)\n");
}

TEST(Threshold, ToleranceBelowDoubleSpacingTerminates) {
  // The d=2,f=1 frontier lies near p = 0.054, where adjacent doubles are
  // ~6.9e-18 apart: a 1e-17 tolerance already bisects down to neighbouring
  // doubles, and 1e-300 must stop at the same bracket rather than probe
  // the same p forever. So close to the frontier the sign solves tie
  // (their intervals contain 0) and count as fair, so the tie rule, not
  // the solver, places this bracket: the test checks termination and
  // determinism only.
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
  // Every probe solves at β = p + margin ≤ kPMax + margin, which must be
  // a reward in (0, 1): a margin of 1 − kPMax or more, or a non-finite
  // one, is refused before any probe runs.
  const selfish::AttackParams base{.p = 0.0, .gamma = 0.5, .d = 1, .f = 1, .l = 4};
  for (const double margin :
       {0.0, -0.1, 1.0 - analysis::ThresholdOptions::kPMax, 1e300,
        std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(margin);
    analysis::ThresholdOptions options;
    options.unfairness_margin = margin;
    EXPECT_THROW(options.validate(), support::InvalidArgument);
    EXPECT_THROW(analysis::fairness_threshold(base, options),
                 support::InvalidArgument);
  }
  analysis::ThresholdOptions options;
  options.p_tolerance = 0.0;
  EXPECT_THROW(analysis::fairness_threshold(base, options),
               support::InvalidArgument);
  // The message is plain text, as `threshold --margin=inf` prints it.
  options = {};
  options.unfairness_margin = std::numeric_limits<double>::infinity();
  try {
    options.validate();
    ADD_FAILURE() << "an infinite margin was accepted";
  } catch (const support::InvalidArgument& e) {
    EXPECT_EQ(std::string(e.what()), "margin out of (0,0.55): inf");
  }
}

}  // namespace
