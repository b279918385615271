// Property-based cross-validation of the reference VI and GS solvers
// against the exact dense oracle on randomly generated unichain MDPs,
// parameterized over seeds and β.
#include <gtest/gtest.h>

#include "support/check.hpp"

#include "mdp/dense_solver.hpp"
#include "mdp/solve.hpp"
#include "mdp/value_iteration.hpp"
#include "test_helpers.hpp"

namespace {

struct Case {
  std::uint64_t seed;
  double beta;
};

class SolverAgreement : public ::testing::TestWithParam<Case> {};

TEST_P(SolverAgreement, AllThreeSolversAgree) {
  const Case c = GetParam();
  support::Rng rng(c.seed);
  const mdp::Mdp m = test_helpers::random_unichain(rng, 30, 3, 4);
  const auto rewards = m.beta_rewards(c.beta);

  const auto vi = mdp::value_iteration(m, rewards);
  const auto gs = mdp::gauss_seidel_value_iteration(m, rewards);
  const auto dense = mdp::dense_policy_iteration(m, rewards);
  ASSERT_TRUE(vi.converged);
  ASSERT_TRUE(gs.converged);
  ASSERT_TRUE(dense.converged);

  EXPECT_NEAR(vi.gain, dense.gain, 2e-5);
  EXPECT_NEAR(gs.gain, dense.gain, 2e-5);
  // The certified VI and GS intervals must contain the exact optimum.
  EXPECT_LE(vi.gain_lo, dense.gain + 1e-7);
  EXPECT_GE(vi.gain_hi, dense.gain - 1e-7);
  EXPECT_LE(gs.gain_lo, dense.gain + 1e-7);
  EXPECT_GE(gs.gain_hi, dense.gain - 1e-7);
}

TEST_P(SolverAgreement, GreedyPolicyAchievesReportedGain) {
  const Case c = GetParam();
  support::Rng rng(c.seed ^ 0xabcdefULL);
  const mdp::Mdp m = test_helpers::random_unichain(rng, 25, 3, 3);
  const auto rewards = m.beta_rewards(c.beta);
  const auto vi = mdp::value_iteration(m, rewards);
  ASSERT_TRUE(vi.converged);
  // Evaluating the returned policy must reproduce the optimal gain.
  const auto eval = mdp::dense_evaluate_policy(m, vi.policy, rewards);
  EXPECT_NEAR(eval.gain, vi.gain, 2e-5);
}

TEST_P(SolverAgreement, GainMonotoneDecreasingInBeta) {
  const Case c = GetParam();
  support::Rng rng(c.seed ^ 0x5a5a5aULL);
  const mdp::Mdp m = test_helpers::random_unichain(rng, 20, 2, 3);
  double previous = 1e100;
  for (double beta = 0.0; beta <= 1.0; beta += 0.25) {
    const auto vi = mdp::value_iteration(m, m.beta_rewards(beta));
    ASSERT_TRUE(vi.converged);
    EXPECT_LE(vi.gain, previous + 1e-7) << "beta=" << beta;
    previous = vi.gain;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SolverAgreement,
    ::testing::Values(Case{1, 0.0}, Case{2, 0.25}, Case{3, 0.5},
                      Case{4, 0.75}, Case{5, 1.0}, Case{6, 0.1},
                      Case{7, 0.9}, Case{8, 0.33}, Case{9, 0.66},
                      Case{10, 0.5}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return "seed" + std::to_string(info.param.seed) + "_beta" +
             std::to_string(static_cast<int>(info.param.beta * 100));
    });

TEST(SolverFacade, ParsesMethods) {
  EXPECT_EQ(mdp::parse_solver_method("vi"), mdp::SolverMethod::kValueIteration);
  EXPECT_EQ(mdp::parse_solver_method("gs"), mdp::SolverMethod::kGaussSeidel);
  EXPECT_EQ(mdp::to_string(mdp::SolverMethod::kValueIteration), "vi");
  // Only vi and gs are solver methods; the dense oracle above is not.
  for (const std::string name : {"pi", "dense", "storm"}) {
    try {
      mdp::parse_solver_method(name);
      ADD_FAILURE() << name << " parsed";
    } catch (const support::InvalidArgument& e) {
      EXPECT_EQ(std::string(e.what()),
                "unknown solver method: " + name + " (expected vi | gs)");
    }
  }
}

TEST(SolverFacade, AllMethodsSolveTheChoiceModel) {
  const mdp::Mdp m = test_helpers::two_action_choice();
  const mdp::BellmanKernel kernel(m);
  for (const auto method :
       {mdp::SolverMethod::kValueIteration, mdp::SolverMethod::kGaussSeidel}) {
    mdp::SolveOptions options;
    options.method = method;
    const auto result = mdp::solve_mean_payoff(kernel, 0.4, options);
    ASSERT_TRUE(result.converged) << mdp::to_string(method);
    EXPECT_NEAR(result.gain, 0.6, 1e-5) << mdp::to_string(method);
  }
}

}  // namespace
