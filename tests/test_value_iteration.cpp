// Relative value iteration on hand-solvable mean-payoff MDPs. Models
// without the mining/decision split go through
// test_helpers::with_mining_steps, which halves every gain.
#include <gtest/gtest.h>

#include "mdp/builder.hpp"
#include "mdp/value_iteration.hpp"
#include "support/check.hpp"
#include "test_helpers.hpp"

namespace {

TEST(ValueIteration, DeterministicCycleGain) {
  // Reward alternates 1 (adv) and 0·…: with β = 0 reward is (1, 0) per
  // period of 2 → gain 1/2. The chain is 2-periodic — the case one sweep
  // of two passes handles exactly, so the first sweep already certifies.
  const mdp::Mdp m = test_helpers::two_state_cycle();
  const auto result = mdp::value_iteration(m, m.beta_rewards(0.0));
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 1);
  EXPECT_NEAR(result.gain, 0.5, 1e-6);
  EXPECT_LE(result.gain_lo, result.gain);
  EXPECT_GE(result.gain_hi, result.gain);
  EXPECT_LT(result.gain_hi - result.gain_lo, 1e-6);
}

TEST(ValueIteration, BetaShiftsCycleGain) {
  // Per period: adv 1, hon 1 → gain(β) = (1 − 2β)/2.
  const mdp::Mdp m = test_helpers::two_state_cycle();
  for (const double beta : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const auto result = mdp::value_iteration(m, m.beta_rewards(beta));
    ASSERT_TRUE(result.converged);
    EXPECT_NEAR(result.gain, (1.0 - 2.0 * beta) / 2.0, 1e-6) << "beta=" << beta;
  }
}

TEST(ValueIteration, PicksBetterAction) {
  // "go" yields mean payoff 1 − β vs "stay" 1 − 2β; for β = 0.4 go wins.
  // With a mining step in front of each state the gain halves.
  const mdp::Mdp m =
      test_helpers::with_mining_steps(test_helpers::two_action_choice());
  const auto result = mdp::value_iteration(m, m.beta_rewards(0.4));
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.gain, (1.0 - 0.4) / 2.0, 1e-6);
  EXPECT_EQ(m.action_label(result.policy[1]), 1u);  // "go" at decision s0
}

TEST(ValueIteration, ProbabilisticGain) {
  // One state, one action: with prob .3 counts (1,0), with prob .7 (0,1).
  // Gain at β=0 is .3 per decision, .15 per step with its mining step.
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action();
  b.add_transition(0, 0.3, {1, 0});
  b.add_transition(0, 0.7, {0, 1});
  const mdp::Mdp m = test_helpers::with_mining_steps(b.build(0));
  const auto result = mdp::value_iteration(m, m.beta_rewards(0.0));
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.gain, 0.15, 1e-6);
}

TEST(ValueIteration, GainBoundsBracketTrueGain) {
  support::Rng rng(99);
  const mdp::Mdp m = test_helpers::with_mining_steps(
      test_helpers::random_unichain(rng, 30, 3, 4));
  mdp::MeanPayoffOptions opts;
  opts.tol = 1e-9;
  const auto tight = mdp::value_iteration(m, m.beta_rewards(0.3), opts);
  ASSERT_TRUE(tight.converged);
  opts.tol = 1e-4;
  const auto loose = mdp::value_iteration(m, m.beta_rewards(0.3), opts);
  ASSERT_TRUE(loose.converged);
  EXPECT_LE(loose.gain_lo, tight.gain + 1e-9);
  EXPECT_GE(loose.gain_hi, tight.gain - 1e-9);
}

TEST(ValueIteration, WarmStartConvergesFasterOrEqual) {
  support::Rng rng(7);
  const mdp::Mdp m = test_helpers::with_mining_steps(
      test_helpers::random_unichain(rng, 50, 3, 4));
  const auto cold = mdp::value_iteration(m, m.beta_rewards(0.31));
  ASSERT_TRUE(cold.converged);
  const auto warm =
      mdp::value_iteration(m, m.beta_rewards(0.32), {}, &cold.values);
  ASSERT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, cold.iterations);
}

TEST(ValueIteration, MaxIterationsReportsNonConverged) {
  support::Rng rng(5);
  const mdp::Mdp m = test_helpers::with_mining_steps(
      test_helpers::random_unichain(rng, 30, 3, 4));
  mdp::MeanPayoffOptions opts;
  opts.max_iterations = 1;
  opts.tol = 1e-15;
  const auto result = mdp::value_iteration(m, m.beta_rewards(0.0), opts);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 1);
}

TEST(ValueIteration, RejectsBadArguments) {
  const mdp::Mdp m = test_helpers::two_state_cycle();
  EXPECT_THROW(mdp::value_iteration(m, {1.0}), support::InvalidArgument);
  mdp::MeanPayoffOptions opts;
  opts.tol = 0.0;
  EXPECT_THROW(mdp::value_iteration(m, m.beta_rewards(0.0), opts),
               support::InvalidArgument);
  opts.tol = 1e-7;
  opts.max_iterations = 0;
  EXPECT_THROW(mdp::value_iteration(m, m.beta_rewards(0.0), opts),
               support::InvalidArgument);
}

TEST(ValueIteration, RefusesAModelWithoutTheMiningSplit) {
  // two_action_choice's "stay" self-loop joins s0 to its own class.
  const mdp::Mdp m = test_helpers::two_action_choice();
  EXPECT_THROW(mdp::value_iteration(m, m.beta_rewards(0.4)),
               support::InvalidArgument);
}

}  // namespace
