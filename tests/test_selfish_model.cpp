// Model-level invariants of the built selfish-mining MDP, plus the
// closed-form checks against honest mining.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "support/check.hpp"

#include "analysis/errev.hpp"
#include "baselines/honest.hpp"
#include "mdp/markov_chain.hpp"
#include "selfish/build.hpp"
#include "selfish/cache.hpp"
#include "test_helpers.hpp"

namespace {

TEST(SelfishModel, InitialStateIsZero) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  const auto model = selfish::build_model(params);
  EXPECT_EQ(model.mdp.initial_state(), 0u);
  EXPECT_EQ(model.space.state_of(0), selfish::State::initial(params));
}

TEST(SelfishModel, AllStatesReachableFromInitial) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 4};
  const auto model = selfish::build_model(params);
  const auto reach = mdp::reachable_states(model.mdp, 0);
  for (mdp::StateId s = 0; s < model.mdp.num_states(); ++s) {
    EXPECT_TRUE(reach[s]) << "state " << s << " enumerated but unreachable";
  }
}

TEST(SelfishModel, InitialStateReachableFromEverywhereUnderAnyPolicy) {
  // The unichain property the analysis relies on (paper Appendix C):
  // under the always-mine policy AND under a release-greedy policy the
  // reset state must stay reachable from every state.
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 3};
  const auto model = selfish::build_model(params);
  const auto& m = model.mdp;

  mdp::Policy always_mine(m.num_states());
  mdp::Policy release_greedy(m.num_states());
  for (mdp::StateId s = 0; s < m.num_states(); ++s) {
    always_mine[s] = m.action_begin(s);
    release_greedy[s] = m.action_end(s) - 1;  // deepest/longest release
  }
  for (const auto& policy : {always_mine, release_greedy}) {
    for (mdp::StateId s = 0; s < m.num_states(); ++s) {
      const auto reach = mdp::reachable_states(m, policy, s);
      EXPECT_TRUE(reach[0]) << "no reset from state " << s;
    }
  }
}

TEST(SelfishModel, ActionLabelsDecodeToAvailableActions) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 3};
  const auto model = selfish::build_model(params);
  for (mdp::StateId s = 0; s < model.mdp.num_states(); ++s) {
    const auto state = model.space.state_of(s);
    const auto expected = test_helpers::actions_of(state, params);
    ASSERT_EQ(model.mdp.num_actions_of(s), expected.size());
    std::size_t idx = 0;
    for (mdp::ActionId a = model.mdp.action_begin(s);
         a < model.mdp.action_end(s); ++a, ++idx) {
      EXPECT_EQ(model.action_of(a), expected[idx]);
    }
  }
}

TEST(SelfishModel, BuiltArraysArePinnedBitForBit) {
  // The kernel and the reference solvers read the same arrays, so their
  // agreement cannot catch a builder that enumerates, merges or
  // renormalizes differently; these fingerprints can. Any change to
  // state ids, action order or a single probability bit moves them, and
  // any change to the state dictionary moves the key hash. The cases:
  // three regression models, perfbench's analyze-cold centre points,
  // d = f = 1, the edges p ∈ {0, 1} and γ ∈ {0, 1}, perfbench's
  // sweep-chain shape at its two γ and three p near its grid, and that
  // shape at p and γ one part in 10⁹ from the edges. Every value was
  // recorded from the enumeration that built each point's model on its
  // own, before shapes were built once and rendered per point.
  struct Case {
    selfish::AttackParams params;
    mdp::StateId states;
    mdp::ActionId actions;
    std::size_t transitions;
    std::uint64_t hash;
    std::uint64_t keys_hash;
  };
  const Case cases[] = {
      {{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 4},
       1348, 6148, 8648, 0x492ec88c78806e44ULL, 0x26b9594e871b2649ULL},
      {{.p = 0.25, .gamma = 0.75, .d = 3, .f = 1, .l = 3},
       764, 2044, 3152, 0xfeda1a9fffa4729aULL, 0xca38d4720033e035ULL},
      {{.p = 0.2, .gamma = 0.0, .d = 2, .f = 1, .l = 4,
        .burn_lost_races = true},
       148, 468, 566, 0xc3ced0426a23c5bcULL, 0xcc9275c81d24cb31ULL},
      {{.p = 0.2, .gamma = 0.5, .d = 2, .f = 3, .l = 4},
       7348, 40948, 58348, 0x1e51804c03f9de16ULL, 0xf42590fdddff2f2dULL},
      {{.p = 0.2, .gamma = 0.5, .d = 4, .f = 1, .l = 4},
       14992, 54992, 83944, 0x736cf8dd612fbe54ULL, 0x453edfa06ec1dd19ULL},
      {{.p = 0.06, .gamma = 0.5, .d = 3, .f = 2, .l = 4},
       40496, 211496, 315496, 0x353592b6b2e9c072ULL, 0xe8ab2f6976c7d819ULL},
      {{.p = 0.3, .gamma = 0.5, .d = 1, .f = 1, .l = 4},
       14, 34, 43, 0xee92b9d41b98995aULL, 0x40bfff3c7a0c59e9ULL},
      {{.p = 0.0, .gamma = 0.5, .d = 2, .f = 2, .l = 3},
       2, 2, 2, 0x44662d770e588241ULL, 0xfd7b28a4bd57beafULL},
      {{.p = 1.0, .gamma = 0.5, .d = 2, .f = 2, .l = 3},
       398, 1118, 1526, 0xda95225a0694617eULL, 0x643ed338060308c6ULL},
      {{.p = 0.3, .gamma = 0.0, .d = 2, .f = 2, .l = 3},
       598, 2038, 2646, 0x5543d5e679009db8ULL, 0x82b31f0fa1138edaULL},
      {{.p = 0.3, .gamma = 1.0, .d = 2, .f = 2, .l = 3},
       598, 2038, 2646, 0x623a352594841ae4ULL, 0x82b31f0fa1138edaULL},
      {{.p = 0.09, .gamma = 0.25, .d = 4, .f = 1, .l = 4},
       14992, 54992, 83944, 0x98d2f7c79558ae10ULL, 0x453edfa06ec1dd19ULL},
      {{.p = 0.15, .gamma = 0.25, .d = 4, .f = 1, .l = 4},
       14992, 54992, 83944, 0xd505eb848b533454ULL, 0x453edfa06ec1dd19ULL},
      {{.p = 0.21, .gamma = 0.25, .d = 4, .f = 1, .l = 4},
       14992, 54992, 83944, 0xcaa9eab807634528ULL, 0x453edfa06ec1dd19ULL},
      {{.p = 0.09, .gamma = 0.75, .d = 4, .f = 1, .l = 4},
       14992, 54992, 83944, 0x88030f4216dc6460ULL, 0x453edfa06ec1dd19ULL},
      {{.p = 0.15, .gamma = 0.75, .d = 4, .f = 1, .l = 4},
       14992, 54992, 83944, 0x8449f340d73d28a4ULL, 0x453edfa06ec1dd19ULL},
      {{.p = 0.21, .gamma = 0.75, .d = 4, .f = 1, .l = 4},
       14992, 54992, 83944, 0x2c1b93924f301a58ULL, 0x453edfa06ec1dd19ULL},
      {{.p = 1e-9, .gamma = 1e-9, .d = 4, .f = 1, .l = 4},
       14992, 54992, 83944, 0x80e78d83c2a4a2ecULL, 0x453edfa06ec1dd19ULL},
      {{.p = 1e-9, .gamma = 1 - 1e-9, .d = 4, .f = 1, .l = 4},
       14992, 54992, 83944, 0xf46020e3588e20d8ULL, 0x453edfa06ec1dd19ULL},
      {{.p = 1 - 1e-9, .gamma = 1e-9, .d = 4, .f = 1, .l = 4},
       14992, 54992, 83944, 0x0f5feeee2c1b0180ULL, 0x453edfa06ec1dd19ULL},
      {{.p = 1 - 1e-9, .gamma = 1 - 1e-9, .d = 4, .f = 1, .l = 4},
       14992, 54992, 83944, 0xdbe3a516edbb5c38ULL, 0x453edfa06ec1dd19ULL},
  };
  for (const Case& c : cases) {
    const auto model = selfish::build_model(c.params);
    EXPECT_EQ(model.mdp.num_states(), c.states) << c.params.to_string();
    EXPECT_EQ(model.mdp.num_actions(), c.actions) << c.params.to_string();
    EXPECT_EQ(model.mdp.num_transitions(), c.transitions)
        << c.params.to_string();
    EXPECT_EQ(test_helpers::model_hash(model.mdp), c.hash)
        << c.params.to_string();
    EXPECT_EQ(test_helpers::state_keys_hash(model.space), c.keys_hash)
        << c.params.to_string();
  }
}

std::string saved_bytes(const selfish::SelfishModel& model) {
  std::ostringstream out;
  selfish::save_model(model, out);
  return out.str();
}

TEST(SelfishModel, RenderingOneShapeLeavesNoTraceOfEarlierPoints) {
  // A shape renders p₁, then p₂, then p₁ again: the first and third
  // models save the same bytes as each other and as p₁'s build_model,
  // and each carries its own point's parameters.
  const selfish::AttackParams p1{.p = 0.15, .gamma = 0.25, .d = 3, .f = 2,
                                 .l = 4};
  selfish::AttackParams p2 = p1;
  p2.p = 0.35;
  p2.gamma = 0.75;
  const selfish::ModelShape shape = selfish::build_shape(p2);
  const selfish::SelfishModel first = selfish::render(shape, p1);
  const selfish::SelfishModel second = selfish::render(shape, p2);
  const selfish::SelfishModel third = selfish::render(shape, p1);
  const std::string bytes = saved_bytes(first);
  EXPECT_EQ(saved_bytes(third), bytes);
  EXPECT_EQ(saved_bytes(selfish::build_model(p1)), bytes);
  EXPECT_EQ(saved_bytes(second), saved_bytes(selfish::build_model(p2)));
  EXPECT_NE(saved_bytes(second), bytes);
  EXPECT_EQ(first.space.params().p, p1.p);
  EXPECT_EQ(second.space.params().gamma, p2.gamma);
  EXPECT_EQ(third.params.gamma, p1.gamma);
  EXPECT_EQ(shape.key().p, 0.5);  // the shape holds no point's value
  EXPECT_EQ(shape.space().params().p, 0.5);
  EXPECT_EQ(first.mdp.structure(), shape.structure());
}

TEST(SelfishModel, RenderRefusesAPointOfAnotherShape) {
  // p = 0 drops every adversary outcome, so it is not a point of an
  // interior p's shape; nor is another l.
  const selfish::AttackParams interior{.p = 0.3, .gamma = 0.5, .d = 2,
                                       .f = 1, .l = 4};
  const selfish::ModelShape shape = selfish::build_shape(interior);
  selfish::AttackParams edge = interior;
  edge.p = 0.0;
  EXPECT_THROW(selfish::render(shape, edge), support::InvalidArgument);
  selfish::AttackParams longer = interior;
  longer.l = 5;
  EXPECT_THROW(selfish::render(shape, longer), support::InvalidArgument);
  EXPECT_EQ(selfish::ShapeKey::of(edge).p, 0.0);
  EXPECT_EQ(selfish::ShapeKey::of(interior), selfish::ShapeKey::of(
      selfish::AttackParams{.p = 1e-300, .gamma = 1 - 1e-16, .d = 2,
                            .f = 1, .l = 4}));
}

TEST(SelfishModel, HonestEquivalentPolicyEarnsExactlyP) {
  // In the d=f=1 model, releasing every block immediately reproduces
  // honest mining: ERRev = p. This pins the reward/transition accounting
  // to the closed form.
  for (const double p : {0.05, 0.1, 0.2, 0.3, 0.4}) {
    const selfish::AttackParams params{.p = p, .gamma = 0.5, .d = 1, .f = 1, .l = 4};
    const auto model = selfish::build_model(params);
    const auto policy = baselines::release_immediately_policy(model);
    EXPECT_NEAR(analysis::exact_errev(model, policy), p, 1e-9) << "p=" << p;
  }
}

TEST(SelfishModel, HonestBaselineClosedForm) {
  EXPECT_DOUBLE_EQ(baselines::honest_errev(0.25), 0.25);
  EXPECT_THROW(baselines::honest_errev(1.5), support::InvalidArgument);
}

TEST(SelfishModel, NeverReleasingEarnsZero) {
  // Pure withholding finalizes no adversary blocks: every fork dies at the
  // window edge, so the adversary's stationary finalization rate is 0.
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 4};
  const auto model = selfish::build_model(params);
  mdp::Policy always_mine(model.mdp.num_states());
  for (mdp::StateId s = 0; s < model.mdp.num_states(); ++s) {
    always_mine[s] = model.mdp.action_begin(s);
  }
  const auto rates = mdp::stationary_distribution(model.mdp, always_mine).rates;
  EXPECT_NEAR(rates.adversary, 0.0, 1e-10);
  EXPECT_GT(rates.honest, 0.0);
}

TEST(SelfishModel, TotalFinalizationRateBoundedBelow) {
  // Paper Appendix C: the total finalization rate is at least
  // δ = (1−p)/(1−p+p·d·f) per *block event* under any strategy. Our MDP
  // interleaves each block event with one decision step, so the bound per
  // MDP step is δ/2.
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 3};
  const auto model = selfish::build_model(params);
  const double delta =
      0.5 * (1 - params.p) / (1 - params.p + params.p * params.d * params.f);
  mdp::Policy always_mine(model.mdp.num_states());
  mdp::Policy last_action(model.mdp.num_states());
  for (mdp::StateId s = 0; s < model.mdp.num_states(); ++s) {
    always_mine[s] = model.mdp.action_begin(s);
    last_action[s] = model.mdp.action_end(s) - 1;
  }
  for (const auto& policy : {always_mine, last_action}) {
    const auto rates = mdp::stationary_distribution(model.mdp, policy).rates;
    EXPECT_GE(rates.adversary + rates.honest, delta - 1e-9);
  }
}

TEST(SelfishModel, ZeroResourceAdversaryEarnsNothing) {
  const selfish::AttackParams params{.p = 0.0, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  const auto model = selfish::build_model(params);
  mdp::Policy policy(model.mdp.num_states());
  for (mdp::StateId s = 0; s < model.mdp.num_states(); ++s) {
    policy[s] = model.mdp.action_begin(s);
  }
  const auto rates = mdp::stationary_distribution(model.mdp, policy).rates;
  EXPECT_DOUBLE_EQ(rates.adversary, 0.0);
  // With p = 0 every mining step is won by honest miners and every decision
  // step incorporates the block: one finalization per two MDP steps.
  EXPECT_NEAR(rates.honest, 0.5, 1e-9);
}

}  // namespace
