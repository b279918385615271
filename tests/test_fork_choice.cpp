// Fork-choice ablation: the burn-lost-races tie-break variant.
//
// The paper's model lets a fork that lost a tie race survive (one depth
// deeper) and potentially override later; the burn variant discards it.
// These tests pin the ordering between the two rules and their agreement
// in the degenerate cases, plus the simulator cross-check.
#include <gtest/gtest.h>

#include "analysis/algorithm1.hpp"
#include "selfish/build.hpp"
#include "selfish/transitions.hpp"
#include "sim/strategies.hpp"
#include "support/check.hpp"
#include "test_helpers.hpp"

namespace {

double optimal_errev(const selfish::AttackParams& params) {
  const auto model = selfish::build_model(params);
  analysis::AnalysisOptions options;
  options.epsilon = 1e-4;
  return analysis::analyze(model, options).errev_of_policy;
}

TEST(ForkChoice, BurnDiscardsTheLosingFork) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1,
                                     .l = 4, .burn_lost_races = true};
  selfish::State s;
  s.c[0][0] = 1;
  s.type = selfish::StepType::kHonestFound;
  const auto outcomes =
      test_helpers::outcomes_of(s, selfish::Action::release(1, 0, 1), params);
  ASSERT_EQ(outcomes.size(), 2u);
  // Losing branch: the fork is gone instead of shifting to depth 2.
  EXPECT_EQ(outcomes[1].next.c[0][0], 0);
  EXPECT_EQ(outcomes[1].next.c[1][0], 0);
}

TEST(ForkChoice, DefaultKeepsTheLosingFork) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  selfish::State s;
  s.c[0][0] = 1;
  s.type = selfish::StepType::kHonestFound;
  const auto outcomes =
      test_helpers::outcomes_of(s, selfish::Action::release(1, 0, 1), params);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[1].next.c[1][0], 1);  // survives one depth deeper
}

TEST(ForkChoice, BurnNeverHelpsTheAdversary) {
  for (const double gamma : {0.25, 0.5, 0.75}) {
    selfish::AttackParams keep{.p = 0.3, .gamma = gamma, .d = 2, .f = 1, .l = 4};
    selfish::AttackParams burn = keep;
    burn.burn_lost_races = true;
    EXPECT_LE(optimal_errev(burn), optimal_errev(keep) + 1e-4)
        << "gamma=" << gamma;
  }
}

TEST(ForkChoice, VariantsAgreeAtGammaExtremes) {
  // γ=1: the losing branch has probability 0; γ=0: optimal play never
  // stakes a fork on a hopeless race. Both variants must coincide.
  for (const double gamma : {0.0, 1.0}) {
    selfish::AttackParams keep{.p = 0.3, .gamma = gamma, .d = 2, .f = 1, .l = 4};
    selfish::AttackParams burn = keep;
    burn.burn_lost_races = true;
    EXPECT_NEAR(optimal_errev(burn), optimal_errev(keep), 2e-4)
        << "gamma=" << gamma;
  }
}

TEST(ForkChoice, ToStringMentionsBurn) {
  selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4,
                               .burn_lost_races = true};
  EXPECT_NE(params.to_string().find("burn"), std::string::npos);
  params.burn_lost_races = false;
  EXPECT_EQ(params.to_string().find("burn"), std::string::npos);
}

TEST(ForkChoice, SimulatorMatchesBurnModel) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1,
                                     .l = 4, .burn_lost_races = true};
  const auto model = selfish::build_model(params);
  analysis::AnalysisOptions options;
  options.epsilon = 1e-4;
  const auto result = analysis::analyze(model, options);
  sim::MdpPolicyStrategy strategy(model, result.policy);
  sim::SimulationOptions sim_options;
  sim_options.steps = 500'000;
  sim_options.warmup_steps = 25'000;
  sim_options.seed = 321;
  const auto simulated = sim::simulate(params, strategy, sim_options);
  EXPECT_NEAR(simulated.errev, result.errev_of_policy, 0.01);
}

}  // namespace
