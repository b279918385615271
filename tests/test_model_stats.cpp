// Model statistics, plus boundary-configuration behavior (l = 1, deep d,
// wide f).
#include <gtest/gtest.h>

#include "analysis/algorithm1.hpp"
#include "selfish/model_stats.hpp"

namespace {

TEST(ModelStats, CountsAreConsistent) {
  const auto model = selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 4});
  const auto stats = selfish::compute_model_stats(model);
  EXPECT_EQ(stats.states_mining + stats.states_honest_found +
                stats.states_adversary_found,
            model.mdp.num_states());
  // Exactly one mine action per state.
  EXPECT_EQ(stats.mine_actions, model.mdp.num_states());
  EXPECT_EQ(stats.mine_actions + stats.release_actions,
            model.mdp.num_actions());
  EXPECT_EQ(stats.transitions, model.mdp.num_transitions());
  EXPECT_GE(stats.mean_branching, 1.0);
  EXPECT_GE(stats.mean_decision_actions, 1.0);
  // Fork capacity bound: at most d·f·l blocks can be withheld.
  EXPECT_LE(stats.max_withheld_blocks, 2 * 2 * 4);
  EXPECT_GT(stats.max_withheld_blocks, 0);
}

TEST(ModelStats, MiningStatesHaveOneAction) {
  const auto model = selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4});
  for (mdp::StateId s = 0; s < model.mdp.num_states(); ++s) {
    if (model.space->state_of(s).type == selfish::StepType::kMining) {
      EXPECT_EQ(model.mdp.num_actions_of(s), 1u);
    }
  }
}

TEST(ModelStats, ToStringMentionsSections) {
  const auto model = selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 1, .f = 1, .l = 2});
  const std::string text = selfish::compute_model_stats(model).to_string();
  EXPECT_NE(text.find("states:"), std::string::npos);
  EXPECT_NE(text.find("actions:"), std::string::npos);
  EXPECT_NE(text.find("transitions:"), std::string::npos);
}

TEST(Boundary, ForkCapOneIsHonestAtMidGamma) {
  // With l = 1 the adversary can only withhold single blocks; at γ = 0.5
  // the race gamble is value-neutral and the optimum collapses to the
  // honest revenue (the l-ablation's first row).
  const auto model = selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 1});
  analysis::AnalysisOptions options;
  options.epsilon = 1e-4;
  const auto result = analysis::analyze(model, options);
  EXPECT_NEAR(result.errev_of_policy, 0.3, 2e-3);
}

TEST(Boundary, ForkCapOneCancelsExactlyEvenAtGammaOne) {
  // A non-obvious exact cancellation: with l = 1 the only deviation is
  // withhold-one-and-race. Even at γ = 1 (every race won) each orphaned
  // honest block costs the adversary an expected p/(1−p) blocks wasted on
  // the capped fork while waiting — and the two-state stationary algebra
  // gives ERRev = p exactly. The fork cap must be ≥ 2 for selfish mining
  // to pay at all.
  for (const auto& [d, f] : {std::pair{1, 1}, {2, 2}}) {
    const auto model = selfish::build_model(
        selfish::AttackParams{.p = 0.3, .gamma = 1.0, .d = d, .f = f, .l = 1});
    analysis::AnalysisOptions options;
    options.epsilon = 1e-4;
    const auto result = analysis::analyze(model, options);
    EXPECT_NEAR(result.errev_of_policy, 0.3, 1e-3) << "d=" << d;
  }
  // …and with l = 2 the same configuration does pay at γ = 1.
  const auto model = selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = 1.0, .d = 2, .f = 2, .l = 2});
  analysis::AnalysisOptions options;
  options.epsilon = 1e-4;
  EXPECT_GT(analysis::analyze(model, options).errev_of_policy, 0.35);
}

TEST(Boundary, DeepNarrowConfigurationBuilds) {
  // d = 6, f = 1, l = 2: 12 fork-length bits + 5 owner bits + 2 type bits.
  const selfish::AttackParams params{.p = 0.2, .gamma = 0.5, .d = 6, .f = 1, .l = 2};
  ASSERT_NO_THROW(params.validate());
  const auto model = selfish::build_model(params);
  EXPECT_GT(model.mdp.num_states(), 1000u);
  analysis::AnalysisOptions options;
  options.epsilon = 1e-3;
  const auto result = analysis::analyze(model, options);
  EXPECT_GT(result.errev_of_policy, 0.2);  // depth keeps helping
}

TEST(Boundary, WideShallowConfigurationBuilds) {
  // f = 6 forks on the tip only.
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 1, .f = 6, .l = 3};
  const auto model = selfish::build_model(params);
  analysis::AnalysisOptions options;
  options.epsilon = 1e-3;
  const auto result = analysis::analyze(model, options);
  // Extra tip forks add proof lanes (extra throughput) even at d = 1.
  EXPECT_GE(result.errev_of_policy, 0.3 - 1e-3);
}

}  // namespace
