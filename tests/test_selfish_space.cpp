// State-space enumeration: sizes, canonical reduction, id stability, and
// the interning table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "selfish/build.hpp"
#include "selfish/space.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace {

TEST(StateSpace, InternAssignsSequentialIds) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  selfish::StateSpace space(params);
  const auto init = selfish::State::initial(params);
  EXPECT_EQ(space.intern(init), 0u);
  EXPECT_EQ(space.intern(init), 0u);  // idempotent
  selfish::State other = init;
  other.c[0][0] = 1;
  EXPECT_EQ(space.intern(other), 1u);
  EXPECT_EQ(space.size(), 2u);
  EXPECT_TRUE(space.contains(init));
  EXPECT_EQ(space.id_of(other), 1u);
  EXPECT_EQ(space.state_of(1), other);
}

TEST(StateSpace, UnknownStateThrows) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  selfish::StateSpace space(params);
  selfish::State s;
  s.c[0][0] = 2;
  EXPECT_FALSE(space.contains(s));
  EXPECT_THROW(space.id_of(s), support::InvalidArgument);
  EXPECT_THROW(space.state_of(0), support::InvalidArgument);
}

TEST(StateSpace, NonCanonicalInternRejected) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 4};
  selfish::StateSpace space(params);
  selfish::State s;
  s.c[0][0] = 1;
  s.c[0][1] = 3;
  EXPECT_THROW(space.intern(s), support::InvalidArgument);
}

TEST(StateSpace, IdsSurviveManyTableGrowths) {
  // Every state of d=3, f=1, l=15 is canonical: 16^3 fork lengths × 4
  // ownerships × 3 types = 49,152 states. From its 16-slot start the
  // table doubles whenever an insert would pass load ½, so this many
  // states grow it 13 times.
  const selfish::AttackParams params{
      .p = 0.3, .gamma = 0.5, .d = 3, .f = 1, .l = 15};
  std::vector<selfish::State> states;
  for (int type = 0; type < 3; ++type) {
    for (int owners = 0; owners < 4; ++owners) {
      for (int cells = 0; cells < 16 * 16 * 16; ++cells) {
        selfish::State s;
        s.c[0][0] = static_cast<std::uint8_t>(cells % 16);
        s.c[1][0] = static_cast<std::uint8_t>(cells / 16 % 16);
        s.c[2][0] = static_cast<std::uint8_t>(cells / 256);
        s.owner_bits = static_cast<std::uint8_t>(owners);
        s.type = static_cast<selfish::StepType>(type);
        states.push_back(s);
      }
    }
  }
  ASSERT_EQ(states.size(), 49152u);
  ASSERT_EQ(states.front(), selfish::State::initial(params));
  ASSERT_EQ(states.front().pack(params), 0u);
  // The initial state first, then the rest in a scrambled order.
  support::Rng rng(7);
  for (std::size_t i = states.size() - 1; i > 1; --i) {
    std::swap(states[i], states[1 + rng.next_below(i)]);
  }

  selfish::StateSpace space(params);
  for (std::size_t i = 0; i < states.size(); ++i) {
    ASSERT_EQ(space.intern(states[i]), i);
  }
  EXPECT_EQ(space.find(0), std::optional<mdp::StateId>(0));
  EXPECT_EQ(space.id_of(selfish::State::initial(params)), 0u);
  for (std::size_t i = 0; i < states.size(); ++i) {
    ASSERT_EQ(space.intern(states[i]), i);
    ASSERT_EQ(space.find(states[i].pack(params)),
              std::optional<mdp::StateId>(i));
    ASSERT_EQ(space.state_of(static_cast<mdp::StateId>(i)), states[i]);
  }
  EXPECT_EQ(space.size(), states.size());
}

TEST(StateSpace, FindRefusesAbsentKeys) {
  // find takes any u64, e.g. a key read from a strategy file
  // (analysis::load_strategy), so absent keys must miss whether or not
  // they fit the packed width (15 bits here).
  const selfish::AttackParams params{
      .p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 4};
  const auto model = selfish::build_model(params);
  std::unordered_set<std::uint64_t> present;
  for (mdp::StateId s = 0; s < model.space->size(); ++s) {
    const std::uint64_t key = model.space->state_of(s).pack(params);
    present.insert(key);
    ASSERT_EQ(model.space->find(key), std::optional<mdp::StateId>(s));
  }
  support::Rng rng(11);
  int absent = 0, wide = 0;
  while (absent < 10000) {
    std::uint64_t key = rng.next_u64();
    // Half of the keys fit the packed width, half carry higher bits.
    if (absent % 2 == 0) key &= (1u << 15) - 1;
    if (present.count(key) != 0) continue;
    ASSERT_EQ(model.space->find(key), std::nullopt) << key;
    wide += (key >> 15) != 0;
    ++absent;
  }
  EXPECT_GE(wide, 4000);
  // A present key with one bit set above the width must miss too, not
  // alias the state it extends.
  for (const std::uint64_t key : present) {
    for (int bit = 15; bit < 64; bit += 7) {
      ASSERT_EQ(model.space->find(key | (1ULL << bit)), std::nullopt)
          << key << " | 1 << " << bit;
    }
  }
}

TEST(RawStateCount, MatchesPaperFormula) {
  // (l+1)^(d·f) · 2^(d−1) · 3
  const selfish::AttackParams p1{.p = 0.3, .gamma = 0.5, .d = 1, .f = 1, .l = 4};
  EXPECT_EQ(selfish::raw_state_count(p1), 5ull * 3ull);
  const selfish::AttackParams p2{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 4};
  EXPECT_EQ(selfish::raw_state_count(p2), 625ull * 2ull * 3ull);
  const selfish::AttackParams p3{.p = 0.3, .gamma = 0.5, .d = 4, .f = 2, .l = 4};
  EXPECT_EQ(selfish::raw_state_count(p3),
            390625ull * 8ull * 3ull);
}

TEST(ReachableSpace, SmallerThanRawSpace) {
  for (const auto& params :
       {selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 4},
        selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 3, .f = 2, .l = 3}}) {
    const auto model = selfish::build_model(params);
    EXPECT_LT(model.mdp.num_states(), selfish::raw_state_count(params))
        << params.to_string();
  }
}

TEST(ReachableSpace, SizeIndependentOfProbabilityParameters) {
  // p and γ only change transition probabilities (0 < p < 1, so every
  // structural branch keeps positive probability) — the reachable space
  // must not change.
  selfish::AttackParams a{.p = 0.1, .gamma = 0.25, .d = 2, .f = 2, .l = 4};
  selfish::AttackParams b{.p = 0.45, .gamma = 0.75, .d = 2, .f = 2, .l = 4};
  EXPECT_EQ(selfish::build_model(a).mdp.num_states(),
            selfish::build_model(b).mdp.num_states());
}

TEST(ReachableSpace, GrowsWithParameters) {
  const auto size = [](int d, int f, int l) {
    const selfish::AttackParams params{
        .p = 0.3, .gamma = 0.5, .d = d, .f = f, .l = l};
    return selfish::build_model(params).mdp.num_states();
  };
  EXPECT_LT(size(1, 1, 4), size(2, 1, 4));
  EXPECT_LT(size(2, 1, 4), size(2, 2, 4));
  EXPECT_LT(size(2, 2, 3), size(2, 2, 4));
  EXPECT_LT(size(2, 2, 4), size(3, 2, 4));
}

TEST(ReachableSpace, KnownSmallCounts) {
  // d=f=1, l=4: C ∈ {0..4} × type, minus unreachable combinations.
  // Regression-pinned values (stability of the enumeration).
  const selfish::AttackParams p11{.p = 0.3, .gamma = 0.5, .d = 1, .f = 1, .l = 4};
  EXPECT_EQ(selfish::build_model(p11).mdp.num_states(), 14u);
}

}  // namespace
