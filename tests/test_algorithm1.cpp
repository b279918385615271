// The formal analysis procedure (Algorithm 1): ε-tightness, consistency
// between the certified bound and the exact policy evaluation, the sign
// exit and tie rule of each bisection step, and the monotone structure it
// relies on (Theorem 3.1).
#include <gtest/gtest.h>

#include "support/check.hpp"

#include <cmath>
#include <cstdint>
#include <string>

#include "analysis/algorithm1.hpp"
#include "analysis/errev.hpp"
#include "mdp/dense_solver.hpp"
#include "mdp/value_iteration.hpp"
#include "obs/metrics.hpp"
#include "selfish/build.hpp"

namespace {

selfish::SelfishModel small_model(double p = 0.3, double gamma = 0.5) {
  return selfish::build_model(
      selfish::AttackParams{.p = p, .gamma = gamma, .d = 2, .f = 1, .l = 4});
}

TEST(Algorithm1, BoundIsEpsilonTight) {
  const auto model = small_model();
  analysis::AnalysisOptions options;
  options.epsilon = 1e-3;
  const auto result = analysis::analyze(model, options);
  EXPECT_LT(result.beta_hi - result.beta_lo, options.epsilon);
  // The exact revenue of the returned strategy lies inside the certified
  // band, with no slack: σ's own gain is at least the gain_lo > 0 that
  // certified β_lo, and no strategy beats ERRev* ≤ β_hi.
  EXPECT_GE(result.errev_of_policy, result.beta_lo);
  EXPECT_LE(result.errev_of_policy, result.beta_hi);
}

TEST(Algorithm1, NearTieIsCertifiedNotGuessed) {
  // Here a step's gain interval once held 0 at the 1e-7 tol, and the
  // search took its sign from the midpoint: it printed [0.313477,
  // 0.314453] for a strategy achieving 0.314453201, above β_hi. On the
  // mining-step operator the 9th step, at β = 0.314453125, ties: the
  // search ends with the certified bracket [β + gain_lo/r, β + gain_hi/r],
  // 4.3e-7 wide, and ERRev(σ) = 0.314453228 lies inside it.
  const auto model = selfish::build_model(selfish::AttackParams{
      .p = 0.2039, .gamma = 0.75, .d = 3, .f = 2, .l = 4});
  analysis::AnalysisOptions options;
  options.epsilon = 1e-3;
  const auto result = analysis::analyze(model, options);
  EXPECT_EQ(result.search_iterations, 9);
  EXPECT_NEAR(result.beta_lo, 0.31445287034593755, 1e-12);
  EXPECT_NEAR(result.beta_hi, 0.31445329557316087, 1e-12);
  EXPECT_GE(result.errev_of_policy, result.beta_lo);
  EXPECT_LE(result.errev_of_policy, result.beta_hi);
}

TEST(Algorithm1, EdgePointBracketsArePinned) {
  // Where ERRev* sits at an end of [0, 1] or the model is degenerate
  // (γ ∈ {0, 1}), the brackets are the lazy operator's, bit for bit.
  struct Edge {
    double p, gamma;
    int d, f;
    double lo, hi;
  };
  for (const Edge& edge : {Edge{0.0, 0.5, 2, 1, 0.0, 0.0009765625},
                           Edge{1e-4, 0.5, 2, 1, 0.0, 0.0009765625},
                           Edge{0.99, 0.5, 2, 1, 0.9990234375, 1.0},
                           Edge{1.0, 0.5, 2, 1, 0.9990234375, 1.0},
                           Edge{1.0, 0.5, 3, 2, 0.9990234375, 1.0},
                           Edge{0.3, 0.0, 1, 1, 0.2998046875, 0.30078125},
                           Edge{0.3, 1.0, 1, 1, 0.419921875, 0.4208984375}}) {
    SCOPED_TRACE(testing::Message() << "p=" << edge.p << " gamma="
                                    << edge.gamma << " d=" << edge.d
                                    << " f=" << edge.f);
    const auto model = selfish::build_model(selfish::AttackParams{
        .p = edge.p, .gamma = edge.gamma, .d = edge.d, .f = edge.f, .l = 4});
    const auto result = analysis::analyze(model);
    EXPECT_EQ(result.beta_lo, edge.lo);
    EXPECT_EQ(result.beta_hi, edge.hi);
    EXPECT_GE(result.errev_of_policy, result.beta_lo);
    EXPECT_LE(result.errev_of_policy, result.beta_hi);
  }
}

TEST(Algorithm1, StrategyEvaluationIsPinned) {
  // The optimal strategy's exact ERRev and its stationary solve's
  // iteration count, recorded before the solve's tail changed from a
  // period stride to averaging μ with μP². Solves that converge within the
  // 256 plain iterations (the perfbench centres and d=3,f=2 at p=0.3) stay
  // bit-identical.
  const auto optimal = [](double p, double gamma, int d, int f) {
    return analysis::analyze(selfish::build_model(selfish::AttackParams{
        .p = p, .gamma = gamma, .d = d, .f = f, .l = 4}));
  };
  struct Pin {
    double p;
    int d, f;
    double errev;
    int iterations;
  };
  for (const Pin& pin : {Pin{0.2, 2, 3, 0x1.04564820aa56fp-2, 58},
                         Pin{0.2, 4, 1, 0x1.182d3b421f154p-2, 58},
                         Pin{0.06, 3, 2, 0x1.13bbe6d625c8p-4, 19},
                         Pin{0.3, 3, 2, 0x1.fc1140bde9cbcp-2, 132}}) {
    SCOPED_TRACE(testing::Message() << "p=" << pin.p << " d=" << pin.d
                                    << " f=" << pin.f);
    const auto result = optimal(pin.p, 0.5, pin.d, pin.f);
    EXPECT_EQ(result.errev_of_policy, pin.errev);
    EXPECT_EQ(result.stationary.iterations, pin.iterations);
  }
  // These two run past 256 iterations (the stride loop took 304 and 288,
  // the averaged tail 337 and 305), so the last bits of ERRev may move.
  const auto d4 = optimal(0.55, 1.0, 4, 1);
  EXPECT_NEAR(d4.errev_of_policy, 0x1.ede0c8b2deab7p-1, 1e-11);
  EXPECT_GT(d4.stationary.iterations, 256);
  const auto d3 = optimal(0.5, 1.0, 3, 2);
  EXPECT_NEAR(d3.errev_of_policy, 0x1.e22be15c0d0bfp-1, 1e-11);
  EXPECT_GT(d3.stationary.iterations, 256);
}

TEST(Algorithm1, ExactTiesEndTheSearchWithACertifiedBracket) {
  // At d=f=1 honest mining is optimal at these points, so ERRev* = p, and
  // p is dyadic: the bisection hits β = p, where no tol certifies a sign.
  // The tie ends the search with [β + gain_lo/r, β + gain_hi/r].
  struct Tie {
    double p, gamma;
    int steps;
  };
  for (const Tie& tie : {Tie{0.25, 0.5, 2}, Tie{0.375, 0.0, 3}}) {
    SCOPED_TRACE(tie.p);
    const auto model = selfish::build_model(selfish::AttackParams{
        .p = tie.p, .gamma = tie.gamma, .d = 1, .f = 1, .l = 4});
    analysis::AnalysisOptions options;
    options.epsilon = 1e-3;
    const auto result = analysis::analyze(model, options);
    EXPECT_EQ(result.search_iterations, tie.steps);
    EXPECT_LE(result.beta_lo, tie.p);
    EXPECT_GE(result.beta_hi, tie.p);
    EXPECT_LT(result.beta_hi - result.beta_lo, options.epsilon);
    EXPECT_NEAR(result.errev_of_policy, tie.p, 1e-9);
    EXPECT_GE(result.errev_of_policy, result.beta_lo);
    EXPECT_LE(result.errev_of_policy, result.beta_hi);
  }
}

TEST(Algorithm1, TieWiderThanEpsilonThrows) {
  // A tie bounds ERRev* only to tol/r (≈2.7e-7 here), so a 1e-9 bracket
  // cannot be certified; the analysis says so instead of guessing.
  const auto model = selfish::build_model(
      selfish::AttackParams{.p = 0.25, .gamma = 0.5, .d = 1, .f = 1, .l = 4});
  analysis::AnalysisOptions options;
  options.epsilon = 1e-9;
  try {
    analysis::analyze(model, options);
    ADD_FAILURE() << "a tie wider than epsilon returned a bracket";
  } catch (const support::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("epsilon=1e-09"), std::string::npos) << what;
    EXPECT_NE(what.find("tol/r = 2.66667e-07"), std::string::npos) << what;
  }
}

TEST(Algorithm1, NoCertifiedGainKeepsTheTrivialLowerEnd) {
  // ERRev* < ε: no step certifies a positive gain, so β_lo stays 0 and σ
  // is the last step's policy, sound because every strategy has ERRev ≥ 0.
  for (const double p : {0.0, 1e-4}) {
    SCOPED_TRACE(p);
    const auto model = selfish::build_model(
        selfish::AttackParams{.p = p, .gamma = 0.5, .d = 2, .f = 1, .l = 4});
    const auto result = analysis::analyze(model);
    EXPECT_EQ(result.beta_lo, 0.0);
    EXPECT_EQ(result.policy.size(), model.mdp.num_states());
    EXPECT_GE(result.errev_of_policy, 0.0);
    EXPECT_LE(result.errev_of_policy, result.beta_hi);
  }
}

TEST(Algorithm1, RunsOneSolvePerSearchStep) {
  // No solve runs outside the bisection loop: the strategy is the policy
  // of the step that certified β_lo.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Counter& solves = obs::counter("selfish_mdp_solves_total", "");
  obs::Counter& iterations = obs::counter("selfish_mdp_iterations_total", "");
  const auto model = small_model();
  const std::uint64_t solves_before = solves.value();
  const std::uint64_t iterations_before = iterations.value();
  const auto result = analysis::analyze(model);
  const std::uint64_t solves_run = solves.value() - solves_before;
  const std::uint64_t iterations_run = iterations.value() - iterations_before;
  obs::set_enabled(was_enabled);
  EXPECT_EQ(solves_run, static_cast<std::uint64_t>(result.search_iterations));
  EXPECT_EQ(iterations_run,
            static_cast<std::uint64_t>(result.solver_iterations));
}

TEST(Algorithm1, SearchIterationsMatchEpsilon) {
  const auto model = small_model();
  analysis::AnalysisOptions options;
  options.epsilon = 1.0 / 64.0;
  const auto result = analysis::analyze(model, options);
  // The loop keeps halving while β_hi − β_lo ≥ ε: widths 1, …, 2⁻⁶ all
  // trigger another step, so [0,1] takes 7 solves to get below 2⁻⁶.
  EXPECT_EQ(result.search_iterations, 7);
}

TEST(Algorithm1, TighterEpsilonNarrowsTheBand) {
  const auto model = small_model();
  analysis::AnalysisOptions coarse, fine;
  coarse.epsilon = 1e-2;
  fine.epsilon = 1e-4;
  const auto r_coarse = analysis::analyze(model, coarse);
  const auto r_fine = analysis::analyze(model, fine);
  // Both brackets must contain the same ERRev*.
  EXPECT_LE(r_coarse.beta_lo, r_fine.beta_hi + 1e-9);
  EXPECT_GE(r_coarse.beta_hi, r_fine.beta_lo - 1e-9);
  EXPECT_LT(r_fine.beta_hi - r_fine.beta_lo,
            r_coarse.beta_hi - r_coarse.beta_lo);
}

TEST(Algorithm1, MeanPayoffMonotoneInBeta) {
  // Theorem 3.1 rests on MP*_β decreasing in β; verify on the real model.
  const auto model = small_model();
  double previous = 1e100;
  for (double beta = 0.0; beta <= 1.0; beta += 0.2) {
    const auto solve =
        mdp::value_iteration(model.mdp, model.mdp.beta_rewards(beta));
    ASSERT_TRUE(solve.converged);
    EXPECT_LE(solve.gain, previous + 1e-7) << "beta=" << beta;
    previous = solve.gain;
  }
}

TEST(Algorithm1, RootOfMeanPayoffIsERRev) {
  // MP*_β = 0 exactly at β* = ERRev* (Theorem 3.1 part 1): the gain at the
  // returned β_lo must be ≈ 0 from above.
  const auto model = small_model();
  analysis::AnalysisOptions options;
  options.epsilon = 1e-5;
  const auto result = analysis::analyze(model, options);
  const auto at_lo =
      mdp::value_iteration(model.mdp, model.mdp.beta_rewards(result.beta_lo));
  EXPECT_GE(at_lo.gain, -1e-6);
  EXPECT_LE(at_lo.gain, 1e-2);  // small: β_lo is within ε of the root
}

TEST(Algorithm1, DenseOracleConfirmsBracketAndStrategy) {
  // Theorem 3.1 checked against the exact dense oracle: the optimal gain
  // MP*_β is ≥ 0 at β_lo and ≤ 0 at β_hi, and the returned strategy's own
  // gain at β_lo is ≥ 0 (part 2), i.e. ERRev(σ) ≥ β_lo.
  const auto model = selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 1, .f = 1, .l = 3});
  analysis::AnalysisOptions options;
  options.epsilon = 1e-4;
  const auto result = analysis::analyze(model, options);
  const auto rewards_lo = model.mdp.beta_rewards(result.beta_lo);
  const auto rewards_hi = model.mdp.beta_rewards(result.beta_hi);
  const auto optimum_lo = mdp::dense_policy_iteration(model.mdp, rewards_lo);
  const auto optimum_hi = mdp::dense_policy_iteration(model.mdp, rewards_hi);
  ASSERT_TRUE(optimum_lo.converged);
  ASSERT_TRUE(optimum_hi.converged);
  EXPECT_GE(optimum_lo.gain, -1e-6);
  EXPECT_LE(optimum_hi.gain, 1e-6);
  EXPECT_GE(
      mdp::dense_evaluate_policy(model.mdp, result.policy, rewards_lo).gain,
      -1e-6);
}

TEST(Algorithm1, SkippingExactEvaluationYieldsNaN) {
  const auto model = small_model();
  analysis::AnalysisOptions options;
  options.epsilon = 1e-2;
  options.evaluate_exact_errev = false;
  const auto result = analysis::analyze(model, options);
  EXPECT_TRUE(std::isnan(result.errev_of_policy));
}

TEST(Algorithm1, RejectsBadEpsilon) {
  const auto model = small_model();
  analysis::AnalysisOptions options;
  options.epsilon = 0.0;
  EXPECT_THROW(analysis::analyze(model, options), support::InvalidArgument);
  options.epsilon = 1.0;
  EXPECT_THROW(analysis::analyze(model, options), support::InvalidArgument);
  // The message is plain text, as `analyze --epsilon=0` prints it.
  options.epsilon = 0.0;
  try {
    analysis::analyze(model, options);
  } catch (const support::InvalidArgument& e) {
    EXPECT_EQ(std::string(e.what()), "epsilon out of (0,1): 0");
  }
}

TEST(Algorithm1, ReportsTimings) {
  const auto model = small_model();
  analysis::AnalysisOptions options;
  options.epsilon = 1e-2;
  const auto result = analysis::analyze(model, options);
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_GT(result.solver_iterations, 0);
}

}  // namespace
