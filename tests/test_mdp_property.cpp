// Property-based checks of the mining-step operator: the reference loop
// against the exact dense oracle on random unichain MDPs (each behind a
// mining step per state, test_helpers::with_mining_steps), and the
// kernel's certificate — its interval holds the exact optimal gain, and
// its strategy earns at least gain_lo — on those fixtures and on the
// selfish-mining models with d ≤ 2, at any thread count.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "analysis/algorithm1.hpp"
#include "mdp/bellman_kernel.hpp"
#include "mdp/dense_solver.hpp"
#include "mdp/value_iteration.hpp"
#include "selfish/build.hpp"
#include "test_helpers.hpp"

namespace {

struct Case {
  std::uint64_t seed;
  double beta;
};

class SolverAgreement : public ::testing::TestWithParam<Case> {};

TEST_P(SolverAgreement, ReferenceAgreesWithDense) {
  const Case c = GetParam();
  support::Rng rng(c.seed);
  const mdp::Mdp m = test_helpers::with_mining_steps(
      test_helpers::random_unichain(rng, 30, 3, 4));
  const auto rewards = m.beta_rewards(c.beta);

  const auto vi = mdp::value_iteration(m, rewards);
  const auto dense = mdp::dense_policy_iteration(m, rewards);
  ASSERT_TRUE(vi.converged);
  ASSERT_TRUE(dense.converged);

  EXPECT_NEAR(vi.gain, dense.gain, 2e-5);
  // The certified interval must contain the exact optimum.
  EXPECT_LE(vi.gain_lo, dense.gain + 1e-7);
  EXPECT_GE(vi.gain_hi, dense.gain - 1e-7);
}

TEST_P(SolverAgreement, GreedyPolicyAchievesReportedGain) {
  const Case c = GetParam();
  support::Rng rng(c.seed ^ 0xabcdefULL);
  const mdp::Mdp m = test_helpers::with_mining_steps(
      test_helpers::random_unichain(rng, 25, 3, 3));
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
  const mdp::Mdp m = test_helpers::with_mining_steps(
      test_helpers::random_unichain(rng, 20, 2, 3));
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

/// Byte-level equality of two double vectors (EXPECT_EQ would compare by
/// value and let -0.0 == 0.0 slip through).
bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// ERRev(σ) = g_A / (g_A + g_H), each rate evaluated exactly.
double exact_errev(const mdp::Mdp& m, const mdp::Policy& policy) {
  std::vector<double> adversary(m.num_actions());
  std::vector<double> honest(m.num_actions());
  for (mdp::ActionId a = 0; a < m.num_actions(); ++a) {
    adversary[a] = m.expected_adversary(a);
    honest[a] = m.expected_honest(a);
  }
  const double g_a = mdp::dense_evaluate_policy(m, policy, adversary).gain;
  const double g_h = mdp::dense_evaluate_policy(m, policy, honest).gain;
  return g_a / (g_a + g_h);
}

TEST(MiningStepOperator, CertificateHoldsOnFixturesAndSelfishModels) {
  std::vector<std::pair<std::string, mdp::Mdp>> fixtures;
  fixtures.emplace_back("cycle", test_helpers::two_state_cycle());
  fixtures.emplace_back("choice", test_helpers::with_mining_steps(
                                      test_helpers::two_action_choice()));
  support::Rng rng(2024);
  for (int i = 0; i < 4; ++i) {
    fixtures.emplace_back("random" + std::to_string(i),
                          test_helpers::with_mining_steps(
                              test_helpers::random_unichain(rng, 30, 3, 4)));
  }
  for (const auto& [d, f] : {std::pair{1, 1}, {2, 1}, {1, 2}}) {
    fixtures.emplace_back(
        "selfish d=" + std::to_string(d) + " f=" + std::to_string(f),
        selfish::build_model(selfish::AttackParams{
                                 .p = 0.3, .gamma = 0.5, .d = d, .f = f,
                                 .l = 4})
            .mdp);
  }
  for (const auto& [name, m] : fixtures) {
    const mdp::BellmanKernel kernel(m);
    for (const double beta : {0.2, 0.35, 0.5, 0.8}) {
      SCOPED_TRACE(name + " beta=" + std::to_string(beta));
      const auto serial = kernel.value_iteration(beta, {}, nullptr, 1);
      const auto threaded = kernel.value_iteration(beta, {}, nullptr, 8);
      ASSERT_TRUE(serial.converged);
      EXPECT_EQ(threaded.iterations, serial.iterations);
      EXPECT_EQ(threaded.gain_lo, serial.gain_lo);
      EXPECT_EQ(threaded.gain_hi, serial.gain_hi);
      EXPECT_EQ(threaded.policy, serial.policy);
      EXPECT_TRUE(same_bytes(threaded.values, serial.values));

      const auto rewards = m.beta_rewards(beta);
      const auto exact = mdp::dense_policy_iteration(m, rewards);
      ASSERT_TRUE(exact.converged);
      EXPECT_LE(serial.gain_lo, exact.gain + 1e-9);
      EXPECT_GE(serial.gain_hi, exact.gain - 1e-9);
      // σ is greedy w.r.t. the certifying sweep's vectors, so its own gain
      // is at least gain_lo, and a certified positive gain puts ERRev(σ)
      // above β (Theorem 3.1(2)).
      EXPECT_GE(mdp::dense_evaluate_policy(m, serial.policy, rewards).gain,
                serial.gain_lo - 1e-9);
      if (serial.gain_lo > 0.0) {
        EXPECT_GT(exact_errev(m, serial.policy), beta);
      }
    }
  }
}

TEST(MiningStepOperator, StrategyErrevLiesInTheBracketOnSelfishModels) {
  for (const auto& [d, f] : {std::pair{1, 1}, {2, 1}, {1, 2}, {2, 2}}) {
    for (const double gamma : {0.0, 0.5, 1.0}) {
      SCOPED_TRACE("d=" + std::to_string(d) + " f=" + std::to_string(f) +
                   " gamma=" + std::to_string(gamma));
      const auto model = selfish::build_model(selfish::AttackParams{
          .p = 0.3, .gamma = gamma, .d = d, .f = f, .l = 4});
      analysis::AnalysisOptions serial, threaded;
      threaded.solver.threads = 8;
      const auto result = analysis::analyze(model, serial);
      EXPECT_GE(result.errev_of_policy, result.beta_lo);
      EXPECT_LE(result.errev_of_policy, result.beta_hi);
      const auto parallel = analysis::analyze(model, threaded);
      EXPECT_EQ(parallel.beta_lo, result.beta_lo);
      EXPECT_EQ(parallel.beta_hi, result.beta_hi);
      EXPECT_EQ(parallel.policy, result.policy);
      EXPECT_EQ(parallel.solver_iterations, result.solver_iterations);
    }
  }
}

}  // namespace
