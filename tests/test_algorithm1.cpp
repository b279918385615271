// The formal analysis procedure (Algorithm 1): ε-tightness, consistency
// between the certified bound and the exact policy evaluation, and the
// monotone structure it relies on (Theorem 3.1).
#include <gtest/gtest.h>

#include "support/check.hpp"

#include <cmath>

#include "analysis/algorithm1.hpp"
#include "analysis/errev.hpp"
#include "mdp/dense_solver.hpp"
#include "mdp/solve.hpp"
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
  EXPECT_EQ(result.errev_lower_bound, result.beta_lo);
  // The exact revenue of the returned strategy must lie within the band
  // certified by the search (allowing solver tolerance slack).
  EXPECT_GE(result.errev_of_policy, result.beta_lo - 1e-5);
  EXPECT_LE(result.errev_of_policy, result.beta_hi + 1e-5);
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
  // Theorem 3.1 checked against the exact dense oracle, for both solver
  // methods: the optimal gain MP*_β is ≥ 0 at β_lo and ≤ 0 at β_hi, and
  // the returned strategy's own gain at β_lo is ≥ 0 (part 2), i.e.
  // ERRev(σ) ≥ β_lo.
  const auto model = selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 1, .f = 1, .l = 3});
  for (const auto method :
       {mdp::SolverMethod::kValueIteration, mdp::SolverMethod::kGaussSeidel}) {
    SCOPED_TRACE(mdp::to_string(method));
    analysis::AnalysisOptions options;
    options.epsilon = 1e-4;
    options.solver.method = method;
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
