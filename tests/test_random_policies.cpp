// Property sweep over random policies on the selfish-mining models:
// every positional strategy — not just the optimal one — must satisfy the
// structural facts the analysis relies on.
#include <gtest/gtest.h>

#include "mdp/markov_chain.hpp"
#include "selfish/build.hpp"
#include "selfish/transitions.hpp"
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
  // The floor Algorithm 1's tie rule divides by: per MDP step, so half the
  // per-mining-step rate.
  const double floor = selfish::min_finalization_rate(c.params);

  for (int trial = 0; trial < 5; ++trial) {
    const auto policy = random_policy(model.mdp, rng);
    const auto rates = mdp::stationary_distribution(model.mdp, policy).rates;
    // Rates are non-negative and the chain keeps finalizing blocks
    // (unichain + the finalization-rate floor).
    EXPECT_GE(rates.adversary, -1e-12);
    EXPECT_GT(rates.honest + rates.adversary, floor - 1e-9);
    const double errev = rates.ratio();
    EXPECT_GE(errev, 0.0);
    EXPECT_LE(errev, 1.0);
  }
}

TEST(RandomPolicies, StationarySolveConvergesAtFullResource) {
  // At p = 1 no honest block returns the chain to the empty window, and
  // many random strategies cycle with period 4 or more (a plain μP²
  // iteration never converged on 15 of the 50 at d=1,f=1). Near p = 1 a
  // reset is rare, so the chains are nearly periodic: at p = 0.99 a plain
  // μP² loop took up to 2,819 (d=1) and 3,327 (d=2) iterations on these.
  // The averaged tail converges on every one within 297.
  for (const int d : {1, 2}) {
    for (const double p : {0.9, 0.99, 1.0}) {
      const selfish::AttackParams params{
          .p = p, .gamma = 0.5, .d = d, .f = 1, .l = 4};
      const auto model = selfish::build_model(params);
      support::Rng rng(7);
      for (int trial = 0; trial < 50; ++trial) {
        SCOPED_TRACE(testing::Message()
                     << "d=" << d << " p=" << p << " trial " << trial);
        const auto policy = random_policy(model.mdp, rng);
        const auto result = mdp::stationary_distribution(model.mdp, policy);
        double total = 0.0;
        for (const double x : result.distribution) total += x;
        EXPECT_NEAR(total, 1.0, 1e-12);
        EXPECT_LT(result.iterations, 1000);
      }
    }
  }
}

TEST(FinalizationRateFloor, IsTightAtDepthOne) {
  // At d = f = 1 the adversary always has one mining target, and a
  // strategy that never releases finalizes exactly the honest blocks: one
  // per honest mining step, which is the floor (1−p)/2 per MDP step. So
  // halving the per-mining-step bound is exact, not slack.
  for (const double p : {0.1, 0.25, 0.45}) {
    const selfish::AttackParams params{
        .p = p, .gamma = 0.5, .d = 1, .f = 1, .l = 4};
    const auto model = selfish::build_model(params);
    mdp::Policy never_release(model.mdp.num_states(), mdp::kInvalidAction);
    for (mdp::StateId s = 0; s < model.mdp.num_states(); ++s) {
      for (mdp::ActionId a = model.mdp.action_begin(s);
           a < model.mdp.action_end(s); ++a) {
        if (model.action_of(a).kind == selfish::Action::Kind::kMine) {
          never_release[s] = a;
        }
      }
      ASSERT_NE(never_release[s], mdp::kInvalidAction);
    }
    const auto rates =
        mdp::stationary_distribution(model.mdp, never_release).rates;
    EXPECT_NEAR(rates.adversary + rates.honest,
                selfish::min_finalization_rate(params), 1e-9)
        << "p=" << p;
    EXPECT_DOUBLE_EQ(selfish::min_finalization_rate(params), (1 - p) / 2);
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
