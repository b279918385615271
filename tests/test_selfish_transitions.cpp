// Transition semantics: hand-derived cases and conservation properties.
#include <gtest/gtest.h>

#include <cmath>
#include <queue>
#include <unordered_set>

#include "selfish/transitions.hpp"
#include "support/check.hpp"
#include "test_helpers.hpp"

namespace {

using selfish::Action;
using selfish::AttackParams;
using selfish::State;
using selfish::StepType;

State make_state(const AttackParams& params,
                 std::initializer_list<std::initializer_list<int>> rows,
                 StepType type, std::uint8_t owner_bits = 0) {
  State s;
  int i = 0;
  for (const auto& row : rows) {
    int j = 0;
    for (const int len : row) {
      s.c[i][j++] = static_cast<std::uint8_t>(len);
    }
    ++i;
  }
  s.owner_bits = owner_bits;
  s.type = type;
  s.canonicalize(params);
  return s;
}

/// An outcome's probability at `params`.
double prob(const selfish::Outcome& o, const AttackParams& params) {
  return o.term.value(params.p, params.gamma);
}

double total_prob(const std::vector<selfish::Outcome>& outcomes,
                  const AttackParams& params) {
  double total = 0.0;
  for (const auto& o : outcomes) total += prob(o, params);
  return total;
}

TEST(MiningTargets, CountsForksAndOpenSlots) {
  const AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 4};
  EXPECT_EQ(selfish::mining_targets(State{}, params), 2u);  // 2 open depths
  const State one = make_state(params, {{1, 0}, {0, 0}}, StepType::kMining);
  EXPECT_EQ(selfish::mining_targets(one, params), 3u);  // 1 fork + 2 open
  const State full =
      make_state(params, {{4, 4}, {4, 4}}, StepType::kMining);
  EXPECT_EQ(selfish::mining_targets(full, params), 4u);  // 4 forks, no open
}

TEST(MiningTargets, AlwaysAtLeastDepth) {
  const AttackParams params{.p = 0.3, .gamma = 0.5, .d = 3, .f = 2, .l = 4};
  EXPECT_GE(selfish::mining_targets(State{}, params),
            static_cast<std::uint32_t>(params.d));
}

TEST(ApplyMine, InitialStateDistribution) {
  const AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 4};
  const auto outcomes =
      test_helpers::outcomes_of(State{}, Action::mine(), params);
  // Two new-fork targets (depth 1, depth 2) + honest.
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_NEAR(total_prob(outcomes, params), 1.0, 1e-12);
  const double denom = 1.0 - 0.3 + 0.3 * 2;
  int honest_seen = 0;
  for (const auto& o : outcomes) {
    EXPECT_EQ(o.counts.adversary, 0);
    EXPECT_EQ(o.counts.honest, 0);
    if (o.next.type == StepType::kHonestFound) {
      ++honest_seen;
      EXPECT_NEAR(prob(o, params), 0.7 / denom, 1e-12);
      EXPECT_EQ(o.next.c, State{}.c);  // pending: chain unchanged
    } else {
      EXPECT_EQ(o.next.type, StepType::kAdversaryFound);
      EXPECT_NEAR(prob(o, params), 0.3 / denom, 1e-12);
    }
  }
  EXPECT_EQ(honest_seen, 1);
}

TEST(ApplyMine, ExtendingCappedForkWastesBlock) {
  const AttackParams params{.p = 0.3, .gamma = 0.5, .d = 1, .f = 1, .l = 4};
  const State capped = make_state(params, {{4}}, StepType::kMining);
  const auto outcomes =
      test_helpers::outcomes_of(capped, Action::mine(), params);
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& o : outcomes) {
    if (o.next.type == StepType::kAdversaryFound) {
      EXPECT_EQ(o.next.c[0][0], 4);  // min(C+1, l): unchanged
    }
  }
}

TEST(ApplyMine, AdversaryDeclineKeepsForks) {
  const AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  const State s = make_state(params, {{2}, {0}}, StepType::kAdversaryFound);
  const auto outcomes = test_helpers::outcomes_of(s, Action::mine(), params);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].next.type, StepType::kMining);
  EXPECT_EQ(outcomes[0].next.c[0][0], 2);
  EXPECT_EQ(outcomes[0].counts.adversary, 0);
  EXPECT_EQ(outcomes[0].counts.honest, 0);
}

TEST(ApplyMine, IncorporationShiftsAndFinalizes) {
  // d=3: pending honest block accepted → depth-2 block (owner: adversary)
  // moves to depth 3 = final; forks shift one depth deeper.
  const AttackParams params{.p = 0.3, .gamma = 0.5, .d = 3, .f = 1, .l = 4};
  const State s = make_state(params, {{1}, {2}, {3}}, StepType::kHonestFound,
                             /*owner_bits=*/0b10);  // depth2 adversary-owned
  const auto outcomes = test_helpers::outcomes_of(s, Action::mine(), params);
  ASSERT_EQ(outcomes.size(), 1u);
  const auto& o = outcomes[0];
  EXPECT_EQ(o.counts.adversary, 1);  // the old depth-2 block finalized
  EXPECT_EQ(o.counts.honest, 0);
  EXPECT_EQ(o.next.type, StepType::kMining);
  EXPECT_EQ(o.next.c[0][0], 0);  // fresh tip: no forks yet
  EXPECT_EQ(o.next.c[1][0], 1);  // old depth-1 fork now at depth 2
  EXPECT_EQ(o.next.c[2][0], 2);  // old depth-2 fork now at depth 3
  // Owner bits shift: new depth1 honest, depth2 = old depth1 (honest).
  EXPECT_EQ(o.next.owner_bits, 0);
}

TEST(ApplyMine, IncorporationAtDepthOneFinalizesPending) {
  const AttackParams params{.p = 0.3, .gamma = 0.5, .d = 1, .f = 1, .l = 4};
  const State s = make_state(params, {{3}}, StepType::kHonestFound);
  const auto outcomes = test_helpers::outcomes_of(s, Action::mine(), params);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].counts.honest, 1);  // pending block instantly final
  EXPECT_EQ(outcomes[0].next.c[0][0], 0);   // withheld fork abandoned
}

TEST(ApplyRelease, ImmediatePublishFromTip) {
  // d=2, adversary just mined: C=[[3],[0]], release(1,0,1).
  const AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  const State s = make_state(params, {{3}, {0}}, StepType::kAdversaryFound,
                             /*owner_bits=*/0b0);  // depth1 honest-owned
  const auto outcomes =
      test_helpers::outcomes_of(s, Action::release(1, 0, 1), params);
  ASSERT_EQ(outcomes.size(), 1u);
  const auto& o = outcomes[0];
  EXPECT_DOUBLE_EQ(prob(o, params), 1.0);
  // Old depth-1 honest block moves to depth 2 = final.
  EXPECT_EQ(o.counts.honest, 1);
  EXPECT_EQ(o.counts.adversary, 0);
  // Remainder of the fork (2 blocks) continues on the new tip.
  EXPECT_EQ(o.next.c[0][0], 2);
  EXPECT_EQ(o.next.c[1][0], 0);
  // New depth-1 block is the released adversary block.
  EXPECT_EQ(o.next.owner_bits, 0b1);
  EXPECT_EQ(o.next.type, StepType::kMining);
}

TEST(ApplyRelease, OverridePendingBlock) {
  // Classic override: lead 2 on the tip, honest block pending.
  const AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  const State s = make_state(params, {{2}, {0}}, StepType::kHonestFound,
                             /*owner_bits=*/0b1);  // depth1 adversary-owned
  const auto outcomes =
      test_helpers::outcomes_of(s, Action::release(1, 0, 2), params);
  ASSERT_EQ(outcomes.size(), 1u);
  const auto& o = outcomes[0];
  EXPECT_DOUBLE_EQ(prob(o, params), 1.0);
  // One released block lands at depth 2 (final, adversary) and the old
  // depth-1 adversary block moves to depth 3 (final too). The pending
  // honest block is orphaned and pays nothing.
  EXPECT_EQ(o.counts.adversary, 2);
  EXPECT_EQ(o.counts.honest, 0);
  EXPECT_EQ(o.next.c[0][0], 0);
  EXPECT_EQ(o.next.owner_bits, 0b1);  // new depth-1 released block
}

TEST(ApplyRelease, TieRace) {
  // Withheld tip block vs pending honest block: γ race.
  const AttackParams params{.p = 0.3, .gamma = 0.25, .d = 2, .f = 1, .l = 4};
  const State s = make_state(params, {{1}, {0}}, StepType::kHonestFound);
  const auto outcomes =
      test_helpers::outcomes_of(s, Action::release(1, 0, 1), params);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_NEAR(total_prob(outcomes, params), 1.0, 1e-12);

  const auto& win = outcomes[0];
  EXPECT_NEAR(prob(win, params), 0.25, 1e-12);
  EXPECT_EQ(win.counts.honest, 1);  // old depth-1 honest block finalizes
  EXPECT_EQ(win.counts.adversary, 0);
  EXPECT_EQ(win.next.owner_bits, 0b1);  // tip now adversary's block
  EXPECT_EQ(win.next.c[0][0], 0);

  const auto& lose = outcomes[1];
  EXPECT_NEAR(prob(lose, params), 0.75, 1e-12);
  EXPECT_EQ(lose.counts.honest, 1);  // old depth-1 block finalizes via shift
  // The withheld fork survives one depth deeper (can still override later).
  EXPECT_EQ(lose.next.c[0][0], 0);
  EXPECT_EQ(lose.next.c[1][0], 1);
  EXPECT_EQ(lose.next.owner_bits, 0b0);
}

TEST(ApplyRelease, TieRaceAtDepthOne) {
  // d=1: win finalizes the adversary block, loss finalizes the honest one
  // and the withheld block is abandoned.
  const AttackParams params{.p = 0.3, .gamma = 0.5, .d = 1, .f = 1, .l = 4};
  const State s = make_state(params, {{1}}, StepType::kHonestFound);
  const auto outcomes =
      test_helpers::outcomes_of(s, Action::release(1, 0, 1), params);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].counts.adversary, 1);
  EXPECT_EQ(outcomes[0].counts.honest, 0);
  EXPECT_EQ(outcomes[0].next.c[0][0], 0);
  EXPECT_EQ(outcomes[1].counts.adversary, 0);
  EXPECT_EQ(outcomes[1].counts.honest, 1);
  EXPECT_EQ(outcomes[1].next.c[0][0], 0);
}

TEST(ApplyRelease, GammaOneOmitsLosingBranch) {
  const AttackParams params{.p = 0.3, .gamma = 1.0, .d = 1, .f = 1, .l = 4};
  const State s = make_state(params, {{1}}, StepType::kHonestFound);
  const auto outcomes =
      test_helpers::outcomes_of(s, Action::release(1, 0, 1), params);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_DOUBLE_EQ(prob(outcomes[0], params), 1.0);
  EXPECT_EQ(outcomes[0].counts.adversary, 1);
}

TEST(ApplyRelease, DeepReleaseFinalizesWindow) {
  // d=3, fork of length 3 rooted at depth 3 (k=i=3 from type=adversary):
  // replaces depths 1-2, releases 3 blocks; new depths: released at 1,2,3
  // (one final) and the old depth-3 root was already final.
  const AttackParams params{.p = 0.3, .gamma = 0.5, .d = 3, .f = 1, .l = 4};
  const State s = make_state(params, {{0}, {0}, {3}}, StepType::kAdversaryFound,
                             /*owner_bits=*/0b11);  // depths 1,2 adversary
  const auto outcomes =
      test_helpers::outcomes_of(s, Action::release(3, 0, 3), params);
  ASSERT_EQ(outcomes.size(), 1u);
  const auto& o = outcomes[0];
  // k − (d−1) = 1 released block final; orphaned depths 1-2 pay nothing.
  EXPECT_EQ(o.counts.adversary, 1);
  EXPECT_EQ(o.counts.honest, 0);
  EXPECT_EQ(o.next.owner_bits, 0b11);  // new depths 1,2: released blocks
  for (int i = 0; i < 3; ++i) EXPECT_EQ(o.next.c[i][0], 0);
}

TEST(ApplyRelease, SurvivingSiblingForkKeepsPosition) {
  // Two forks at depth 1 (f=2); releasing one keeps the sibling rooted at
  // the same block, which moves to depth k+1 = 2.
  const AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 4};
  const State s =
      make_state(params, {{2, 1}, {0, 0}}, StepType::kAdversaryFound);
  const auto outcomes =
      test_helpers::outcomes_of(s, Action::release(1, 0, 1), params);
  ASSERT_EQ(outcomes.size(), 1u);
  const auto& o = outcomes[0];
  EXPECT_EQ(o.next.c[0][0], 1);  // remainder on the new tip
  EXPECT_EQ(o.next.c[1][0], 1);  // sibling fork now at depth 2
}

TEST(ApplyRelease, RejectsInvalidReleases) {
  const AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  const State s = make_state(params, {{1}, {1}}, StepType::kAdversaryFound);
  // Fork shorter than its depth.
  EXPECT_THROW(
      test_helpers::outcomes_of(s, Action::release(2, 0, 1), params),
      support::InvalidArgument);
  // k exceeding the fork length.
  EXPECT_THROW(
      test_helpers::outcomes_of(s, Action::release(1, 0, 3), params),
      support::InvalidArgument);
  // Releasing while mining.
  const State mining = make_state(params, {{2}, {0}}, StepType::kMining);
  EXPECT_THROW(
      test_helpers::outcomes_of(mining, Action::release(1, 0, 1), params),
      support::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Property sweep: over every reachable state of several configurations,
// every action's outcome distribution is a probability distribution over
// canonical in-range states.
// ---------------------------------------------------------------------------

TEST(Scratch, ReusedBuffersHoldOnlyTheLatestCall) {
  // The model build reuses one action list and one outcome buffer for
  // every state; each call must replace what the previous one left.
  const AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 4};
  State rich;
  rich.c[0] = {3, 1};
  rich.c[1] = {2, 0};
  rich.type = StepType::kHonestFound;
  State mining = rich;
  mining.type = StepType::kMining;

  std::vector<Action> actions;
  selfish::available_actions(rich, params, actions);
  EXPECT_EQ(actions.size(), 6u);  // mine + (1,0,k≤3) + (1,1,1) + (2,0,2)
  selfish::available_actions(mining, params, actions);
  EXPECT_EQ(actions, test_helpers::actions_of(mining, params));

  selfish::Outcomes outcomes;
  selfish::apply_action(mining, Action::mine(), params, outcomes);
  // Row 0: two tips; row 1: one tip and a new fork; the honest block.
  EXPECT_EQ(outcomes.size(), 5u);
  selfish::apply_action(rich, Action::release(1, 0, 1), params, outcomes);
  const std::vector<selfish::Outcome> reused(outcomes.begin(),
                                             outcomes.end());
  const auto fresh =
      test_helpers::outcomes_of(rich, Action::release(1, 0, 1), params);
  ASSERT_EQ(reused.size(), fresh.size());
  for (std::size_t k = 0; k < fresh.size(); ++k) {
    EXPECT_EQ(reused[k].next, fresh[k].next);
    EXPECT_EQ(reused[k].term, fresh[k].term);
    EXPECT_EQ(reused[k].counts, fresh[k].counts);
  }
}

class TransitionProperties
    : public ::testing::TestWithParam<selfish::AttackParams> {};

TEST_P(TransitionProperties, OutcomesFormDistributionsOverCanonicalStates) {
  const AttackParams params = GetParam();
  std::unordered_set<std::uint64_t> seen;
  std::queue<State> frontier;
  const State init = State::initial(params);
  seen.insert(init.pack(params));
  frontier.push(init);
  std::size_t checked_actions = 0;

  while (!frontier.empty()) {
    const State s = frontier.front();
    frontier.pop();
    for (const Action& action : test_helpers::actions_of(s, params)) {
      const auto outcomes = test_helpers::outcomes_of(s, action, params);
      ASSERT_FALSE(outcomes.empty());
      ++checked_actions;
      double total = 0.0;
      for (const auto& o : outcomes) {
        EXPECT_GT(prob(o, params), 0.0);
        EXPECT_LE(prob(o, params), 1.0 + 1e-12);
        EXPECT_TRUE(o.next.is_canonical(params))
            << o.next.to_string(params);
        // Finalization per step is bounded by the window the release can
        // cross: at most l released blocks + d−1 tracked blocks.
        EXPECT_LE(o.counts.adversary + o.counts.honest,
                  params.l + params.d - 1);
        total += prob(o, params);
        if (seen.insert(o.next.pack(params)).second) frontier.push(o.next);
      }
      EXPECT_NEAR(total, 1.0, 1e-9) << s.to_string(params) << " / "
                                    << action.to_string();
    }
  }
  EXPECT_GT(checked_actions, 10u);
}

TEST_P(TransitionProperties, MiningStatesAlternateWithDecisionStates) {
  const AttackParams params = GetParam();
  const State init = State::initial(params);
  for (const auto& o :
       test_helpers::outcomes_of(init, Action::mine(), params)) {
    EXPECT_NE(o.next.type, StepType::kMining);
    for (const Action& action :
         test_helpers::actions_of(o.next, params)) {
      for (const auto& o2 : test_helpers::outcomes_of(o.next, action, params)) {
        EXPECT_EQ(o2.next.type, StepType::kMining);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TransitionProperties,
    ::testing::Values(
        selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 1, .f = 1, .l = 4},
        selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4},
        selfish::AttackParams{.p = 0.1, .gamma = 0.0, .d = 2, .f = 2, .l = 3},
        selfish::AttackParams{.p = 0.4, .gamma = 1.0, .d = 3, .f = 1, .l = 3},
        selfish::AttackParams{.p = 0.2, .gamma = 0.75, .d = 3, .f = 2, .l = 2}),
    [](const ::testing::TestParamInfo<selfish::AttackParams>& info) {
      const auto& p = info.param;
      return "d" + std::to_string(p.d) + "f" + std::to_string(p.f) + "l" +
             std::to_string(p.l) + "i" + std::to_string(info.index);
    });

}  // namespace
