// Policy statistics: structure of optimal and degenerate strategies.
#include <gtest/gtest.h>

#include "analysis/algorithm1.hpp"
#include "analysis/errev.hpp"
#include "analysis/policy_stats.hpp"
#include "analysis/render.hpp"
#include "baselines/honest.hpp"
#include "support/check.hpp"

namespace {

selfish::SelfishModel model_21(double gamma = 0.5) {
  return selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = gamma, .d = 2, .f = 1, .l = 4});
}

mdp::Policy always_mine(const selfish::SelfishModel& model) {
  mdp::Policy policy(model.mdp.num_states());
  for (mdp::StateId s = 0; s < model.mdp.num_states(); ++s) {
    policy[s] = model.mdp.action_begin(s);
  }
  return policy;
}

analysis::PolicyStats stats_of(const selfish::SelfishModel& model,
                               const mdp::Policy& policy) {
  return analysis::compute_policy_stats(
      model, policy,
      mdp::stationary_distribution(model.mdp, policy).distribution);
}

TEST(PolicyStats, AlwaysMineNeverReleases) {
  const auto model = model_21();
  const auto stats = stats_of(model, always_mine(model));
  EXPECT_DOUBLE_EQ(stats.release_rate_after_adversary_block, 0.0);
  EXPECT_DOUBLE_EQ(stats.release_rate_after_honest_block, 0.0);
  EXPECT_TRUE(stats.releases.empty());
  EXPECT_DOUBLE_EQ(stats.race_rate, 0.0);
  EXPECT_DOUBLE_EQ(stats.override_rate, 0.0);
  // Forks accumulate: the chain spends its time near the cap.
  EXPECT_GT(stats.mean_withheld_blocks, 1.0);
}

TEST(PolicyStats, ReleaseImmediatelyHasNoWithholdingInD1) {
  const auto model = selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 1, .f = 1, .l = 4});
  const auto policy = baselines::release_immediately_policy(model);
  const auto stats = stats_of(model, policy);
  EXPECT_DOUBLE_EQ(stats.release_rate_after_adversary_block, 1.0);
  // Everything is published on arrival: at most the one fresh block is
  // ever private, and the strategy never races.
  EXPECT_LT(stats.mean_withheld_blocks, 0.5);
  EXPECT_DOUBLE_EQ(stats.race_rate, 0.0);
  ASSERT_FALSE(stats.releases.empty());
  EXPECT_EQ(stats.releases[0].depth, 1);
  EXPECT_EQ(stats.releases[0].length, 1);
}

TEST(PolicyStats, OptimalStrategyWithholdsAndRaces) {
  const auto model = model_21(0.5);
  analysis::AnalysisOptions options;
  options.epsilon = 1e-4;
  const auto result = analysis::analyze(model, options);
  const auto stats = analysis::compute_policy_stats(
      model, result.policy, result.stationary.distribution);
  // The optimal attack is not release-immediately (it withholds) and it
  // does race pending honest blocks.
  EXPECT_LT(stats.release_rate_after_adversary_block, 1.0);
  EXPECT_GT(stats.race_rate + stats.override_rate, 0.0);
  EXPECT_GT(stats.mean_withheld_blocks, 0.1);
  EXPECT_FALSE(stats.releases.empty());
}

TEST(PolicyStats, RaceFlagRequiresPendingTie) {
  const auto model = model_21(0.5);
  analysis::AnalysisOptions options;
  options.epsilon = 1e-4;
  const auto result = analysis::analyze(model, options);
  const auto stats = analysis::compute_policy_stats(
      model, result.policy, result.stationary.distribution);
  for (const auto& release : stats.releases) {
    if (release.race) {
      EXPECT_EQ(release.length, release.depth);
    }
    EXPECT_GT(release.frequency, 0.0);
    EXPECT_GE(release.length, release.depth);
  }
}

TEST(PolicyStats, ToStringMentionsKeyNumbers) {
  const auto model = model_21();
  const auto stats = stats_of(model, always_mine(model));
  const std::string text = stats.to_string();
  EXPECT_NE(text.find("release rate"), std::string::npos);
  EXPECT_NE(text.find("withheld"), std::string::npos);
}

TEST(PolicyStats, RejectsForeignPolicy) {
  const auto model = model_21();
  const std::vector<double> uniform(model.mdp.num_states(),
                                    1.0 / model.mdp.num_states());
  mdp::Policy bogus(model.mdp.num_states(), 0);
  EXPECT_THROW(analysis::compute_policy_stats(model, bogus, uniform),
               support::InvalidArgument);
  EXPECT_THROW(analysis::compute_policy_stats(model, always_mine(model), {}),
               support::InvalidArgument);
}

TEST(PolicyStats, ReportReadsTheAnalysisSolve) {
  // analyze keeps its strategy's stationary solve and the report reads
  // it; a result analysed without exact evaluation makes the report
  // solve the chain itself. Both paths print the same bytes.
  const auto model = model_21();
  const auto evaluated = analysis::analyze(model);
  EXPECT_FALSE(evaluated.stationary.distribution.empty());
  EXPECT_EQ(evaluated.errev_of_policy,
            analysis::exact_errev(model, evaluated.policy));

  analysis::AnalysisOptions off;
  off.evaluate_exact_errev = false;
  auto bare = analysis::analyze(model, off);
  EXPECT_TRUE(bare.stationary.distribution.empty());
  bare.errev_of_policy = analysis::exact_errev(model, bare.policy);
  bare.seconds = evaluated.seconds;  // line 3 prints it
  EXPECT_EQ(analysis::render_analysis_report(model.params, model, evaluated,
                                             true),
            analysis::render_analysis_report(model.params, model, bare,
                                             true));
}

}  // namespace

namespace cutoff_tests {

TEST(PolicyStats, CutoffDropsRareStates) {
  const auto model = selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4});
  analysis::AnalysisOptions options;
  options.epsilon = 1e-4;
  const auto result = analysis::analyze(model, options);
  const auto& stationary = result.stationary.distribution;
  const auto fine = analysis::compute_policy_stats(model, result.policy,
                                                   stationary,
                                                   /*cutoff=*/1e-12);
  const auto coarse = analysis::compute_policy_stats(model, result.policy,
                                                     stationary,
                                                     /*cutoff=*/0.05);
  // A brutal cutoff can only remove contribution mass.
  EXPECT_LE(coarse.mean_withheld_blocks, fine.mean_withheld_blocks + 1e-12);
  EXPECT_LE(coarse.releases.size(), fine.releases.size());
}

}  // namespace cutoff_tests
