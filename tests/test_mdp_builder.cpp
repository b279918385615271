// Unit tests for the MDP builder and the frozen model's accessors.
#include <gtest/gtest.h>

#include "mdp/builder.hpp"
#include "support/check.hpp"
#include "test_helpers.hpp"

namespace {

TEST(MdpBuilder, BuildsTwoStateCycle) {
  const mdp::Mdp m = test_helpers::two_state_cycle();
  EXPECT_EQ(m.num_states(), 2u);
  EXPECT_EQ(m.num_actions(), 2u);
  EXPECT_EQ(m.num_transitions(), 2u);
  EXPECT_EQ(m.initial_state(), 0u);
  EXPECT_EQ(m.action_begin(0), 0u);
  EXPECT_EQ(m.action_end(0), 1u);
  EXPECT_EQ(m.action_begin(1), 1u);
  EXPECT_EQ(m.action_end(1), 2u);
}

TEST(MdpBuilder, TransitionContents) {
  const mdp::Mdp m = test_helpers::two_state_cycle();
  const std::uint32_t i = m.transition_begin(0);
  ASSERT_EQ(m.transition_end(0), i + 1);
  EXPECT_EQ(m.target(i), 1u);
  EXPECT_DOUBLE_EQ(m.prob(i), 1.0);
  EXPECT_EQ(m.counts(i).adversary, 1);
  EXPECT_EQ(m.counts(i).honest, 0);
}

TEST(MdpBuilder, ExpectedCountsPrecomputed) {
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action();
  b.add_transition(0, 0.25, {2, 0});
  b.add_transition(0, 0.75, {0, 1});
  const mdp::Mdp m = b.build(0);
  EXPECT_DOUBLE_EQ(m.expected_adversary(0), 0.5);
  EXPECT_DOUBLE_EQ(m.expected_honest(0), 0.75);
  // r_β = E[adv] − β (E[adv]+E[hon]).
  EXPECT_DOUBLE_EQ(m.beta_reward(0, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(m.beta_reward(0, 1.0), 0.5 - 1.25);
  const auto rewards = m.beta_rewards(0.4);
  ASSERT_EQ(rewards.size(), 1u);
  EXPECT_DOUBLE_EQ(rewards[0], 0.5 - 0.4 * 1.25);
}

TEST(MdpBuilder, MergesDuplicateTransitions) {
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action();
  b.add_transition(0, 0.5, {1, 0});
  b.add_transition(0, 0.5, {1, 0});  // same target, same counts → merged
  const mdp::Mdp m = b.build(0);
  ASSERT_EQ(m.num_transitions(), 1u);
  EXPECT_DOUBLE_EQ(m.prob(m.transition_begin(0)), 1.0);
}

TEST(MdpBuilder, KeepsDistinctCountsSeparate) {
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action();
  b.add_transition(0, 0.5, {1, 0});
  b.add_transition(0, 0.5, {0, 1});  // same target, different counts
  const mdp::Mdp m = b.build(0);
  EXPECT_EQ(m.num_transitions(), 2u);
}

TEST(MdpBuilder, RejectsNonStochasticAction) {
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action();
  b.add_transition(0, 0.5);
  EXPECT_THROW(b.build(0), support::InvalidArgument);
}

TEST(MdpBuilder, RejectsActionlessState) {
  mdp::MdpBuilder b;
  b.add_state();
  EXPECT_THROW(b.build(0), support::InvalidArgument);
}

TEST(MdpBuilder, RejectsOutOfRangeTarget) {
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action();
  b.add_transition(7, 1.0);
  EXPECT_THROW(b.build(0), support::InvalidArgument);
}

TEST(MdpBuilder, RejectsBadInitialState) {
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action();
  b.add_transition(0, 1.0);
  EXPECT_THROW(b.build(5), support::InvalidArgument);
}

TEST(MdpBuilder, RejectsTransitionBeforeAction) {
  mdp::MdpBuilder b;
  b.add_state();
  EXPECT_THROW(b.add_transition(0, 1.0), support::InvalidArgument);
}

TEST(MdpBuilder, RejectsActionBeforeState) {
  mdp::MdpBuilder b;
  EXPECT_THROW(b.add_action(), support::InvalidArgument);
}

TEST(MdpBuilder, RenormalizesRoundedRows) {
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action();
  // Three thirds accumulate rounding; build() renormalizes exactly.
  b.add_transition(0, 1.0 / 3.0, {1, 0});
  b.add_transition(0, 1.0 / 3.0, {0, 1});
  b.add_transition(0, 1.0 / 3.0, {0, 0});
  const mdp::Mdp m = b.build(0);
  double total = 0.0;
  for (std::uint32_t i = m.transition_begin(0); i < m.transition_end(0); ++i) {
    total += m.prob(i);
  }
  EXPECT_DOUBLE_EQ(total, 1.0);
}

TEST(MdpBuilder, ActionLabelsRoundTrip) {
  const mdp::Mdp m = test_helpers::two_action_choice();
  EXPECT_EQ(m.action_label(0), 0u);
  EXPECT_EQ(m.action_label(1), 1u);
  EXPECT_EQ(m.action_label(2), 2u);
  EXPECT_EQ(m.num_actions_of(0), 2u);
  EXPECT_EQ(m.num_actions_of(1), 1u);
}

TEST(MdpBuilder, MemoryBytesPositive) {
  const mdp::Mdp m = test_helpers::two_state_cycle();
  EXPECT_GT(m.memory_bytes(), 0u);
}

}  // namespace
