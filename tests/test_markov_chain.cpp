// Stationary distributions, counter rates, reachability and policy
// validation.
#include <gtest/gtest.h>

#include "support/check.hpp"

#include "mdp/builder.hpp"
#include "mdp/markov_chain.hpp"
#include "test_helpers.hpp"

namespace {

TEST(MarkovChain, ValidatePolicyCatchesErrors) {
  const mdp::Mdp m = test_helpers::two_action_choice();
  EXPECT_NO_THROW(mdp::validate_policy(m, {0, 2}));
  EXPECT_NO_THROW(mdp::validate_policy(m, {1, 2}));
  EXPECT_THROW(mdp::validate_policy(m, {2, 2}), support::InvalidArgument);
  EXPECT_THROW(mdp::validate_policy(m, {0}), support::InvalidArgument);
}

TEST(MarkovChain, ReachabilityAllActions) {
  // s0 -> s1 (only via action "go"); s2 unreachable.
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action();
  b.add_transition(0, 1.0);
  b.add_action();
  b.add_transition(1, 1.0);
  b.add_state();
  b.add_action();
  b.add_transition(1, 1.0);
  b.add_state();  // isolated
  b.add_action();
  b.add_transition(2, 1.0);
  const mdp::Mdp m = b.build(0);

  const auto reach = mdp::reachable_states(m, 0);
  EXPECT_TRUE(reach[0]);
  EXPECT_TRUE(reach[1]);
  EXPECT_FALSE(reach[2]);
}

TEST(MarkovChain, ReachabilityUnderPolicy) {
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action();  // stay
  b.add_transition(0, 1.0);
  b.add_action();  // go
  b.add_transition(1, 1.0);
  b.add_state();
  b.add_action();
  b.add_transition(1, 1.0);
  const mdp::Mdp m = b.build(0);

  const auto stay = mdp::reachable_states(m, mdp::Policy{0, 2}, 0);
  EXPECT_TRUE(stay[0]);
  EXPECT_FALSE(stay[1]);
  const auto go = mdp::reachable_states(m, mdp::Policy{1, 2}, 0);
  EXPECT_TRUE(go[1]);
}

TEST(MarkovChain, StationaryOfCycleIsUniform) {
  const mdp::Mdp m = test_helpers::two_state_cycle();
  const auto result = mdp::stationary_distribution(m, {0, 1});
  EXPECT_NEAR(result.distribution[0], 0.5, 1e-9);
  EXPECT_NEAR(result.distribution[1], 0.5, 1e-9);
}

TEST(MarkovChain, StationaryOfBiasedChain) {
  // s0 → s1 w.p. 1; s1 → s0 w.p. 0.5, stays w.p. 0.5.
  // Stationary: μ = (1/3, 2/3).
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action();
  b.add_transition(1, 1.0);
  b.add_state();
  b.add_action();
  b.add_transition(0, 0.5);
  b.add_transition(1, 0.5);
  const mdp::Mdp m = b.build(0);
  const auto result = mdp::stationary_distribution(m, {0, 1});
  EXPECT_NEAR(result.distribution[0], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(result.distribution[1], 2.0 / 3.0, 1e-9);
}

TEST(MarkovChain, StationarySumsToOne) {
  support::Rng rng(123);
  const mdp::Mdp m = test_helpers::random_unichain(rng, 60, 3, 4);
  mdp::Policy policy(m.num_states());
  for (mdp::StateId s = 0; s < m.num_states(); ++s) {
    policy[s] = m.action_begin(s);
  }
  const auto result = mdp::stationary_distribution(m, policy);
  double total = 0.0;
  for (double x : result.distribution) {
    EXPECT_GE(x, 0.0);
    total += x;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(MarkovChain, StationaryIgnoresTransientStates) {
  // s0 → s1; s1 ↔ s2 cycle. s0 is transient: stationary mass 0.
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action();
  b.add_transition(1, 1.0);
  b.add_state();
  b.add_action();
  b.add_transition(2, 1.0);
  b.add_state();
  b.add_action();
  b.add_transition(1, 1.0);
  const mdp::Mdp m = b.build(0);
  const auto result = mdp::stationary_distribution(m, {0, 1, 2});
  EXPECT_NEAR(result.distribution[0], 0.0, 1e-9);
  EXPECT_NEAR(result.distribution[1], 0.5, 1e-9);
  EXPECT_NEAR(result.distribution[2], 0.5, 1e-9);
}

/// A deterministic cycle s0 -> s1 -> … -> s(k−1) -> s0.
mdp::Mdp cycle(int k) {
  mdp::MdpBuilder b;
  for (int s = 0; s < k; ++s) {
    b.add_state();
    b.add_action();
    b.add_transition(static_cast<mdp::StateId>((s + 1) % k), 1.0,
                     {1, 0});
  }
  return b.build(0);
}

TEST(MarkovChain, StationaryOfLongerCyclesIsUniform) {
  // Periods 3, 4 and 6 leave P² periodic too, so μP² alone oscillates on
  // these until the 5,000,000-iteration cap. After 256 plain iterations
  // each step averages μ with μP², and the averaged chain is aperiodic:
  // these converge at 297, 258 and 297 iterations.
  for (const int k : {3, 4, 6}) {
    SCOPED_TRACE(k);
    const mdp::Mdp m = cycle(k);
    mdp::Policy policy(static_cast<std::size_t>(k));
    for (int s = 0; s < k; ++s) policy[s] = static_cast<mdp::ActionId>(s);
    const auto result = mdp::stationary_distribution(m, policy);
    for (const double x : result.distribution) EXPECT_NEAR(x, 1.0 / k, 1e-12);
    EXPECT_LE(result.iterations, 320);
  }
}

TEST(MarkovChain, StationaryWeighsClosedCyclesByAbsorption) {
  // A transient root enters a 64-cycle or a 65-cycle with probability ½
  // each, so μP² keeps cycling. The averaged tail converges on both cycles
  // at once and weights each by its absorption probability: ½ · 1/64 and
  // ½ · 1/65 per state.
  constexpr mdp::StateId kA = 64, kB = 65;
  mdp::MdpBuilder b;
  b.add_state();  // the root, state 0
  b.add_action();
  b.add_transition(1, 0.5);
  b.add_transition(1 + kA, 0.5);
  for (mdp::StateId i = 0; i < kA; ++i) {
    b.add_state();
    b.add_action();
    b.add_transition(1 + (i + 1) % kA, 1.0);
  }
  for (mdp::StateId i = 0; i < kB; ++i) {
    b.add_state();
    b.add_action();
    b.add_transition(1 + kA + (i + 1) % kB, 1.0);
  }
  const mdp::Mdp m = b.build(0);
  mdp::Policy policy(m.num_states());
  for (mdp::StateId s = 0; s < m.num_states(); ++s) policy[s] = s;
  const auto result = mdp::stationary_distribution(m, policy);
  EXPECT_NEAR(result.distribution[0], 0.0, 1e-12);
  for (mdp::StateId i = 0; i < kA; ++i) {
    EXPECT_NEAR(result.distribution[1 + i], 1.0 / 128, 1e-12) << "a" << i;
  }
  for (mdp::StateId i = 0; i < kB; ++i) {
    EXPECT_NEAR(result.distribution[1 + kA + i], 1.0 / 130, 1e-12)
        << "b" << i;
  }
}

TEST(MarkovChain, StationaryOfACycleEnteredAtTwoPhases) {
  // s0 is transient and enters the 4-cycle a -> b -> c -> d -> a at a and
  // at c, two phases apart. Then μP² = (b + d)/2 is already a fixed point
  // of P², though not of P, and π = (μ + μP)/2 spreads it over the cycle.
  mdp::MdpBuilder b;
  b.add_state();  // s0
  b.add_action();
  b.add_transition(1, 0.5);
  b.add_transition(3, 0.5);
  for (mdp::StateId s = 1; s <= 4; ++s) {
    b.add_state();
    b.add_action();
    b.add_transition(s == 4 ? 1 : s + 1, 1.0);
  }
  const mdp::Mdp m = b.build(0);
  const auto result = mdp::stationary_distribution(m, {0, 1, 2, 3, 4});
  EXPECT_NEAR(result.distribution[0], 0.0, 1e-12);
  for (mdp::StateId s = 1; s <= 4; ++s) {
    EXPECT_NEAR(result.distribution[s], 0.25, 1e-12) << "state " << s;
  }
}

TEST(PolicyEvaluation, CounterRatesMatchStructure) {
  const mdp::Mdp m = test_helpers::two_state_cycle();
  const mdp::Policy policy{0, 1};
  const auto rates = mdp::stationary_distribution(m, policy).rates;
  // One adversary and one honest finalization per 2-step period.
  EXPECT_NEAR(rates.adversary, 0.5, 1e-9);
  EXPECT_NEAR(rates.honest, 0.5, 1e-9);
  EXPECT_NEAR(rates.ratio(), 0.5, 1e-9);
}

}  // namespace
