// Property sweep over random policies on the selfish-mining models:
// every positional strategy — not just the optimal one — must satisfy the
// structural facts the analysis relies on.
#include <gtest/gtest.h>

#include "mdp/markov_chain.hpp"
#include "selfish/build.hpp"
#include "support/rng.hpp"

namespace {

struct Case {
  selfish::AttackParams params;
  std::uint64_t seed;
};

mdp::Policy random_policy(const mdp::Mdp& m, support::Rng& rng) {
  mdp::Policy policy(m.num_states());
  for (mdp::StateId s = 0; s < m.num_states(); ++s) {
    const auto count = m.num_actions_of(s);
    policy[s] = m.action_begin(s) +
                static_cast<mdp::ActionId>(rng.next_below(count));
  }
  return policy;
}

class RandomPolicies : public ::testing::TestWithParam<Case> {};

TEST_P(RandomPolicies, EveryPolicyHasWellDefinedRevenue) {
  const Case c = GetParam();
  const auto model = selfish::build_model(c.params);
  support::Rng rng(c.seed);
  const double delta =
      0.5 * (1 - c.params.p) /
      (1 - c.params.p + c.params.p * c.params.d * c.params.f);

  for (int trial = 0; trial < 5; ++trial) {
    const auto policy = random_policy(model.mdp, rng);
    const auto rates = mdp::stationary_distribution(model.mdp, policy).rates;
    // Rates are non-negative and the chain keeps finalizing blocks
    // (unichain + the paper's δ lower bound, halved for decision steps).
    EXPECT_GE(rates.adversary, -1e-12);
    EXPECT_GT(rates.honest + rates.adversary, delta - 1e-9);
    const double errev = rates.ratio();
    EXPECT_GE(errev, 0.0);
    EXPECT_LE(errev, 1.0);
  }
}

TEST_P(RandomPolicies, ResetStateRemainsReachable) {
  const Case c = GetParam();
  const auto model = selfish::build_model(c.params);
  support::Rng rng(c.seed ^ 0x9999ULL);
  for (int trial = 0; trial < 3; ++trial) {
    const auto policy = random_policy(model.mdp, rng);
    // Unichain justification (paper Appendix C): from any state the
    // all-honest reset state is reachable under any policy.
    const auto reach =
        mdp::reachable_states(model.mdp, policy, model.mdp.initial_state());
    for (mdp::StateId s = 0; s < model.mdp.num_states(); ++s) {
      if (!reach[s]) continue;
      const auto back = mdp::reachable_states(model.mdp, policy, s);
      ASSERT_TRUE(back[model.mdp.initial_state()])
          << "state " << s << " cannot reset";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RandomPolicies,
    ::testing::Values(
        Case{{.p = 0.3, .gamma = 0.5, .d = 1, .f = 1, .l = 4}, 11},
        Case{{.p = 0.15, .gamma = 0.25, .d = 2, .f = 1, .l = 4}, 22},
        Case{{.p = 0.4, .gamma = 0.75, .d = 2, .f = 2, .l = 3}, 33},
        Case{{.p = 0.3, .gamma = 1.0, .d = 2, .f = 1, .l = 4}, 44},
        Case{{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4,
              .burn_lost_races = true},
             55}),
    [](const ::testing::TestParamInfo<Case>& info) {
      const auto& p = info.param.params;
      return "d" + std::to_string(p.d) + "f" + std::to_string(p.f) + "i" +
             std::to_string(info.index);
    });

}  // namespace
