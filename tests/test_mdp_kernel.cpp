// BellmanKernel determinism contract (ISSUE acceptance criteria): the SoA
// kernel is bit-identical to the legacy AoS reference path — gain bounds,
// value vector, policy, iteration counts — for every solver method, and
// bit-identical to itself at any thread count (1 vs 8 byte-compared).
// Deliberately non-stochastic: it gates in the fast `ctest -LE stochastic`
// stage of every CI leg.
#include <gtest/gtest.h>

#include <cstring>

#include "analysis/algorithm1.hpp"
#include "mdp/solve.hpp"
#include "selfish/build.hpp"
#include "support/check.hpp"
#include "test_helpers.hpp"

namespace {

/// Byte-level equality of two double vectors (EXPECT_EQ would compare by
/// value and let -0.0 == 0.0 slip through).
bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_identical(const mdp::MeanPayoffResult& kernel,
                      const mdp::MeanPayoffResult& reference,
                      const std::string& label) {
  EXPECT_EQ(kernel.converged, reference.converged) << label;
  EXPECT_EQ(kernel.iterations, reference.iterations) << label;
  EXPECT_EQ(kernel.gain, reference.gain) << label;
  EXPECT_EQ(kernel.gain_lo, reference.gain_lo) << label;
  EXPECT_EQ(kernel.gain_hi, reference.gain_hi) << label;
  EXPECT_EQ(kernel.policy, reference.policy) << label;
  EXPECT_TRUE(same_bytes(kernel.values, reference.values)) << label;
}

selfish::SelfishModel build(int d, int f, int l = 4) {
  return selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = d, .f = f, .l = l});
}

TEST(BellmanKernel, FusedRewardMatchesBetaReward) {
  const auto model = build(2, 1);
  const mdp::BellmanKernel kernel(model.mdp);
  for (const double beta : {0.0, 0.25, 0.41, 1.0}) {
    for (mdp::ActionId a = 0; a < model.mdp.num_actions(); a += 7) {
      ASSERT_EQ(kernel.reward(a, beta), model.mdp.beta_reward(a, beta))
          << "a=" << a << " beta=" << beta;
    }
  }
}

TEST(BellmanKernel, BitIdenticalToLegacyOnSelfishModels) {
  for (const auto& [d, f] : {std::pair{1, 1}, {2, 1}, {2, 2}}) {
    const auto model = build(d, f);
    const mdp::BellmanKernel kernel(model.mdp);
    for (const double beta : {0.2, 0.41, 0.8}) {
      const auto rewards = model.mdp.beta_rewards(beta);
      const std::string label = "d=" + std::to_string(d) +
                                " f=" + std::to_string(f) +
                                " beta=" + std::to_string(beta);
      expect_identical(kernel.value_iteration(beta),
                       mdp::value_iteration(model.mdp, rewards),
                       "vi " + label);
      expect_identical(kernel.gauss_seidel(beta),
                       mdp::gauss_seidel_value_iteration(model.mdp, rewards),
                       "gs " + label);
    }
    // Warm-started solves, the shape of every bisection step after the
    // first: both methods seeded from one neighbouring solve's values.
    const auto seed = kernel.value_iteration(0.40);
    const auto rewards = model.mdp.beta_rewards(0.42);
    const std::string label =
        "warm d=" + std::to_string(d) + " f=" + std::to_string(f);
    expect_identical(
        kernel.value_iteration(0.42, {}, &seed.values),
        mdp::value_iteration(model.mdp, rewards, {}, &seed.values),
        "vi " + label);
    expect_identical(
        kernel.gauss_seidel(0.42, {}, &seed.values),
        mdp::gauss_seidel_value_iteration(model.mdp, rewards, {},
                                          &seed.values),
        "gs " + label);
  }
}

TEST(BellmanKernel, BitIdenticalToLegacyOnHandAndRandomModels) {
  support::Rng rng(4242);
  std::vector<mdp::Mdp> models;
  models.push_back(test_helpers::two_state_cycle());
  models.push_back(test_helpers::two_action_choice());
  models.push_back(test_helpers::random_unichain(rng, 60, 3, 4));
  for (std::size_t i = 0; i < models.size(); ++i) {
    const mdp::BellmanKernel kernel(models[i]);
    for (const double beta : {0.0, 0.4, 1.0}) {
      const auto rewards = models[i].beta_rewards(beta);
      const std::string label =
          "model=" + std::to_string(i) + " beta=" + std::to_string(beta);
      expect_identical(kernel.value_iteration(beta),
                       mdp::value_iteration(models[i], rewards),
                       "vi " + label);
      expect_identical(kernel.gauss_seidel(beta),
                       mdp::gauss_seidel_value_iteration(models[i], rewards),
                       "gs " + label);
    }
  }
}

TEST(BellmanKernel, FacadeBitIdenticalForAllSolverMethods) {
  // pi/dense fall back to the AoS path inside the kernel overload, so the
  // facade contract — solve_mean_payoff(kernel, β) ≡ solve_mean_payoff(m,
  // beta_rewards(β)) — holds for every method. Dense is O(n³): use the
  // small l=3 model for it.
  for (const auto method :
       {mdp::SolverMethod::kValueIteration, mdp::SolverMethod::kGaussSeidel,
        mdp::SolverMethod::kPolicyIteration,
        mdp::SolverMethod::kDensePolicyIteration}) {
    const bool dense = method == mdp::SolverMethod::kDensePolicyIteration;
    const auto model = dense ? build(1, 1, 3) : build(2, 1);
    const mdp::BellmanKernel kernel(model.mdp);
    mdp::SolveOptions options;
    options.method = method;
    const double beta = 0.41;
    expect_identical(
        mdp::solve_mean_payoff(kernel, beta, options),
        mdp::solve_mean_payoff(model.mdp, model.mdp.beta_rewards(beta),
                               options),
        "method=" + mdp::to_string(method));
  }
}

TEST(BellmanKernel, ThreadCountInvariantByteForByte) {
  // d=2,f=2 (1348 states) clears the kernel's per-worker floor, so the
  // 8-thread run genuinely takes the parallel path.
  const auto model = build(2, 2);
  ASSERT_GT(model.mdp.num_states(), 1024u);
  const mdp::BellmanKernel kernel(model.mdp);
  for (const double beta : {0.2, 0.43927}) {
    const auto vi_1 = kernel.value_iteration(beta, {}, nullptr, 1);
    const auto vi_8 = kernel.value_iteration(beta, {}, nullptr, 8);
    expect_identical(vi_8, vi_1, "vi beta=" + std::to_string(beta));
    const auto gs_1 = kernel.gauss_seidel(beta, {}, nullptr, 1);
    const auto gs_8 = kernel.gauss_seidel(beta, {}, nullptr, 8);
    expect_identical(gs_8, gs_1, "gs beta=" + std::to_string(beta));
  }
}

TEST(BellmanKernel, ThreadCountInvariantWithWarmStart) {
  const auto model = build(2, 2);
  const mdp::BellmanKernel kernel(model.mdp);
  const auto seed = kernel.value_iteration(0.40);
  const auto warm_1 = kernel.value_iteration(0.42, {}, &seed.values, 1);
  const auto warm_8 = kernel.value_iteration(0.42, {}, &seed.values, 8);
  expect_identical(warm_8, warm_1, "warm-started vi");
  EXPECT_LE(warm_1.iterations, seed.iterations);
}

TEST(BellmanKernel, AnalyzeThreadCountInvariant) {
  const auto model = build(2, 2);
  analysis::AnalysisOptions options_1, options_8;
  options_1.epsilon = 1e-3;
  options_8.epsilon = 1e-3;
  options_8.solver.threads = 8;
  const auto serial = analysis::analyze(model, options_1);
  const auto threaded = analysis::analyze(model, options_8);
  EXPECT_EQ(threaded.errev_lower_bound, serial.errev_lower_bound);
  EXPECT_EQ(threaded.errev_of_policy, serial.errev_of_policy);
  EXPECT_EQ(threaded.policy, serial.policy);
  EXPECT_TRUE(same_bytes(threaded.final_values, serial.final_values));
}

TEST(BellmanKernel, NonConvergedRunStillReturnsConsistentPolicy) {
  const auto model = build(2, 1);
  const mdp::BellmanKernel kernel(model.mdp);
  mdp::MeanPayoffOptions options;
  options.max_iterations = 3;
  options.tol = 1e-15;
  const auto rewards = model.mdp.beta_rewards(0.41);
  for (const int threads : {1, 8}) {
    const auto vi = kernel.value_iteration(0.41, options, nullptr, threads);
    EXPECT_FALSE(vi.converged);
    expect_identical(vi, mdp::value_iteration(model.mdp, rewards, options),
                     "non-converged vi");
    const auto gs = kernel.gauss_seidel(0.41, options, nullptr, threads);
    EXPECT_FALSE(gs.converged);
    expect_identical(
        gs, mdp::gauss_seidel_value_iteration(model.mdp, rewards, options),
        "non-converged gs");
    // Every state got a real action even without convergence.
    for (const mdp::ActionId a : vi.policy) EXPECT_NE(a, mdp::kInvalidAction);
    for (const mdp::ActionId a : gs.policy) EXPECT_NE(a, mdp::kInvalidAction);
  }
}

TEST(BellmanKernel, RejectsBadArguments) {
  const mdp::Mdp m = test_helpers::two_state_cycle();
  const mdp::BellmanKernel kernel(m);
  mdp::MeanPayoffOptions options;
  options.tau = 0.0;
  EXPECT_THROW(kernel.value_iteration(0.0, options),
               support::InvalidArgument);
  options.tau = 0.5;
  options.tol = 0.0;
  EXPECT_THROW(kernel.gauss_seidel(0.0, options), support::InvalidArgument);
  options.tol = 1e-7;
  options.max_iterations = 0;
  EXPECT_THROW(kernel.value_iteration(0.0, options),
               support::InvalidArgument);
}

TEST(BellmanKernel, WarmStartSizeMismatchRejectsWithReason) {
  // The pre-PR kernel compared warm_start->size() (size_t) against the
  // 32-bit state count and silently cold-started on mismatch — masking
  // caller bugs AND breaking the job-key promise that a warm-keyed
  // result really was warm-started. Now it rejects loudly; the one
  // legitimate cross-model boundary (grid neighbors with different
  // reachable-state counts) is handled explicitly in analysis::analyze.
  const auto model = build(2, 1);
  const mdp::BellmanKernel kernel(model.mdp);
  const std::vector<double> wrong_small(3, 0.0);
  const std::vector<double> wrong_big(model.mdp.num_states() + 1, 0.0);
  EXPECT_THROW(kernel.value_iteration(0.41, {}, &wrong_small),
               support::InvalidArgument);
  EXPECT_THROW(kernel.value_iteration(0.41, {}, &wrong_big),
               support::InvalidArgument);
  EXPECT_THROW(kernel.gauss_seidel(0.41, {}, &wrong_small),
               support::InvalidArgument);
  // Exact-size warm start still accepted.
  const auto seed = kernel.value_iteration(0.41);
  EXPECT_NO_THROW(kernel.value_iteration(0.42, {}, &seed.values));
}

TEST(BellmanKernel, ReportsSoAFootprint) {
  const auto model = build(2, 1);
  const mdp::BellmanKernel kernel(model.mdp);
  // targets (4 B) + probs (8 B) per transition, adv + tot per action.
  EXPECT_GE(kernel.memory_bytes(),
            model.mdp.num_transitions() * 12 +
                model.mdp.num_actions() * 16);
}

}  // namespace
