// Action enumeration and encoding.
#include <gtest/gtest.h>

#include "selfish/actions.hpp"
#include "support/check.hpp"
#include "test_helpers.hpp"

namespace {

selfish::AttackParams params_22() {
  return selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 4};
}

TEST(Action, EncodeDecodeRoundTrip) {
  for (const auto action :
       {selfish::Action::mine(), selfish::Action::release(1, 0, 1),
        selfish::Action::release(4, 3, 7)}) {
    EXPECT_EQ(selfish::Action::decode(action.encode()), action);
  }
}

TEST(Action, ToString) {
  EXPECT_EQ(selfish::Action::mine().to_string(), "mine");
  EXPECT_EQ(selfish::Action::release(2, 1, 3).to_string(),
            "release(i=2,j=1,k=3)");
}

TEST(AvailableActions, MiningStateHasOnlyMine) {
  const auto params = params_22();
  selfish::State s;
  s.c[0][0] = 3;
  s.type = selfish::StepType::kMining;
  const auto actions = test_helpers::actions_of(s, params);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0], selfish::Action::mine());
}

TEST(AvailableActions, MineIsAlwaysFirst) {
  const auto params = params_22();
  selfish::State s;
  s.c[0][0] = 2;
  s.type = selfish::StepType::kAdversaryFound;
  const auto actions = test_helpers::actions_of(s, params);
  ASSERT_GE(actions.size(), 1u);
  EXPECT_EQ(actions[0], selfish::Action::mine());
}

TEST(AvailableActions, ReleaseRequiresLengthAtLeastDepth) {
  const auto params = params_22();
  selfish::State s;
  s.type = selfish::StepType::kAdversaryFound;
  s.c[0][0] = 2;  // depth 1, length 2 → k ∈ {1, 2}
  s.c[1][0] = 1;  // depth 2, length 1 < i=2 → not releasable
  const auto actions = test_helpers::actions_of(s, params);
  ASSERT_EQ(actions.size(), 3u);
  EXPECT_EQ(actions[1], selfish::Action::release(1, 0, 1));
  EXPECT_EQ(actions[2], selfish::Action::release(1, 0, 2));
}

TEST(AvailableActions, DeepForkReleasableOnceLongEnough) {
  const auto params = params_22();
  selfish::State s;
  s.type = selfish::StepType::kHonestFound;
  s.c[1][0] = 3;  // depth 2, length 3 → k ∈ {2, 3}
  const auto actions = test_helpers::actions_of(s, params);
  ASSERT_EQ(actions.size(), 3u);
  EXPECT_EQ(actions[1], selfish::Action::release(2, 0, 2));
  EXPECT_EQ(actions[2], selfish::Action::release(2, 0, 3));
}

TEST(AvailableActions, SkipsExchangeableDuplicateForks) {
  const auto params = params_22();
  selfish::State s;
  s.type = selfish::StepType::kAdversaryFound;
  s.c[0][0] = 2;
  s.c[0][1] = 2;  // identical fork → only one set of release actions
  const auto actions = test_helpers::actions_of(s, params);
  ASSERT_EQ(actions.size(), 3u);  // mine + k=1,2 on slot 0 only
  for (const auto& a : actions) {
    if (a.kind == selfish::Action::Kind::kRelease) {
      EXPECT_EQ(a.slot, 0);
    }
  }
}

TEST(AvailableActions, DistinctLengthsBothOffered) {
  const auto params = params_22();
  selfish::State s;
  s.type = selfish::StepType::kAdversaryFound;
  s.c[0][0] = 3;
  s.c[0][1] = 1;
  const auto actions = test_helpers::actions_of(s, params);
  // mine + slot0 k∈{1,2,3} + slot1 k=1.
  ASSERT_EQ(actions.size(), 5u);
  EXPECT_EQ(actions[4], selfish::Action::release(1, 1, 1));
}

TEST(AvailableActions, EmptyStateOnlyMine) {
  const auto params = params_22();
  selfish::State s;
  s.type = selfish::StepType::kHonestFound;
  const auto actions = test_helpers::actions_of(s, params);
  ASSERT_EQ(actions.size(), 1u);
}

TEST(AvailableActions, RequiresCanonicalState) {
  const auto params = params_22();
  selfish::State s;
  s.c[0][0] = 1;
  s.c[0][1] = 3;  // unsorted
  EXPECT_THROW(test_helpers::actions_of(s, params),
               support::InvalidArgument);
}

}  // namespace
