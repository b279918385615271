// Monte-Carlo simulator: closed-form checks and MDP cross-validation.
//
// The simulator implements the protocol against concrete blocks and counts
// revenue from the final chain, so agreement with the MDP's stationary
// analysis validates both the transition semantics and the reward design.
#include <gtest/gtest.h>

#include "support/check.hpp"

#include "analysis/algorithm1.hpp"
#include "analysis/errev.hpp"
#include "selfish/build.hpp"
#include "sim/fork_window.hpp"
#include "sim/simulator.hpp"
#include "sim/strategies.hpp"

namespace {

constexpr chain::NodeId kAttacker = 0;
constexpr chain::NodeId kHonest = 1;

sim::SimulationOptions fast_options(std::uint64_t steps = 300'000,
                                    std::uint64_t seed = 1234) {
  sim::SimulationOptions options;
  options.steps = steps;
  options.warmup_steps = steps / 20;
  options.seed = seed;
  return options;
}

TEST(Simulator, HonestEquivalentEarnsP) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 1, .f = 1, .l = 4};
  sim::ReleaseImmediatelyStrategy strategy;
  const auto result = sim::simulate(params, strategy, fast_options());
  EXPECT_NEAR(result.errev, 0.3, 0.01);
  EXPECT_EQ(result.races_won + result.races_lost, 0u);
}

TEST(Simulator, NeverReleasingEarnsZero) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 4};
  sim::NeverReleaseStrategy strategy;
  const auto result = sim::simulate(params, strategy, fast_options(100'000));
  EXPECT_EQ(result.revenue.adversary, 0u);
  EXPECT_GT(result.revenue.honest, 0u);
  EXPECT_DOUBLE_EQ(result.errev, 0.0);
}

TEST(Simulator, ZeroResourceNeverMines) {
  const selfish::AttackParams params{.p = 0.0, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  sim::NeverReleaseStrategy strategy;
  const auto result = sim::simulate(params, strategy, fast_options(50'000));
  EXPECT_EQ(result.adversary_blocks_mined, 0u);
  EXPECT_DOUBLE_EQ(result.errev, 0.0);
}

TEST(Simulator, DeterministicUnderSeed) {
  const selfish::AttackParams params{.p = 0.25, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  sim::ReleaseImmediatelyStrategy a, b;
  const auto r1 = sim::simulate(params, a, fast_options(50'000, 7));
  const auto r2 = sim::simulate(params, b, fast_options(50'000, 7));
  EXPECT_EQ(r1.revenue.adversary, r2.revenue.adversary);
  EXPECT_EQ(r1.revenue.honest, r2.revenue.honest);
  EXPECT_EQ(r1.releases, r2.releases);
}

TEST(Simulator, CountersAreConsistent) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  sim::ReleaseImmediatelyStrategy strategy;
  const auto result = sim::simulate(params, strategy, fast_options(100'000));
  EXPECT_EQ(result.adversary_blocks_mined + result.honest_blocks_mined,
            100'000u);
  EXPECT_LE(result.races_won + result.races_lost + result.overrides,
            result.releases);
}

TEST(Simulator, RejectsBadOptions) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  sim::NeverReleaseStrategy strategy;
  sim::SimulationOptions options;
  options.steps = 10;
  options.warmup_steps = 10;
  EXPECT_THROW(sim::simulate(params, strategy, options),
               support::InvalidArgument);
}

// Exact results of the optimal d=2, f=2, l=3 strategy at p=0.35, γ=0.5,
// recorded before the simulator ran on sim::ForkWindow: any change to the
// mining lanes, slot order, release or pruning semantics shows up here.
struct PinnedRun {
  bool burn_lost_races;
  std::uint64_t seed;
  double errev;
  std::uint64_t adversary, honest, releases, overrides, races_won,
      races_lost, wasted, adversary_mined, honest_mined;
};

class SimulatorPinned : public ::testing::TestWithParam<PinnedRun> {};

TEST_P(SimulatorPinned, ReproducesRecordedRun) {
  const PinnedRun& pin = GetParam();
  selfish::AttackParams params{.p = 0.35, .gamma = 0.5, .d = 2, .f = 2, .l = 3};
  params.burn_lost_races = pin.burn_lost_races;
  const auto model = selfish::build_model(params);
  const auto analysis = analysis::analyze(model, analysis::AnalysisOptions{});
  sim::MdpPolicyStrategy strategy(model, analysis.policy);
  sim::SimulationOptions options;
  options.steps = 60'000;
  options.warmup_steps = 3'000;
  options.seed = pin.seed;
  const auto result = sim::simulate(params, strategy, options);
  EXPECT_DOUBLE_EQ(result.errev, pin.errev);
  EXPECT_EQ(result.revenue.adversary, pin.adversary);
  EXPECT_EQ(result.revenue.honest, pin.honest);
  EXPECT_EQ(result.final_owners.size(), pin.adversary + pin.honest);
  EXPECT_EQ(result.releases, pin.releases);
  EXPECT_EQ(result.overrides, pin.overrides);
  EXPECT_EQ(result.races_won, pin.races_won);
  EXPECT_EQ(result.races_lost, pin.races_lost);
  EXPECT_EQ(result.adversary_blocks_wasted, pin.wasted);
  EXPECT_EQ(result.adversary_blocks_mined, pin.adversary_mined);
  EXPECT_EQ(result.honest_blocks_mined, pin.honest_mined);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SimulatorPinned,
    ::testing::Values(
        PinnedRun{false, 7, 0.51934062346988741, 15910, 14725, 13871, 2745,
                  3038, 3052, 191, 35521, 24479},
        PinnedRun{true, 11, 0.48709751084722541, 14931, 15722, 13164, 2969,
                  2914, 2876, 172, 35137, 24863}),
    [](const ::testing::TestParamInfo<PinnedRun>& info) {
      return info.param.burn_lost_races ? std::string("Burn")
                                        : std::string("NoBurn");
    });

// ForkWindow: the attacker's world both simulators run. Windows start
// like the simulator's, with d honest blocks on genesis.
sim::ForkWindow seeded_window(const selfish::AttackParams& params,
                              chain::BlockArena& arena) {
  sim::ForkWindow window(params);
  for (int i = 0; i < params.d; ++i) {
    window.extend(arena.add(window.tip(), kHonest));
  }
  return window;
}

TEST(ForkWindow, ReleaseRerootsTheRemainderOnTheNewTip) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  chain::BlockArena arena;
  sim::ForkWindow window = seeded_window(params, arena);
  const chain::BlockId h2 = window.tip();
  // Lanes: a new fork at depth 1 (lane 0) and at depth 2 (lane 1).
  ASSERT_EQ(window.lanes(), 2u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(window.grow(0, kAttacker, arena));  // opens, then extends
  }
  const chain::BlockId a3 = static_cast<chain::BlockId>(arena.size() - 1);
  EXPECT_EQ(window.view(selfish::StepType::kAdversaryFound, kAttacker, arena)
                .c[0][0],
            3);

  window.release(1, 0, 2);
  const auto& chain = window.public_chain();
  ASSERT_EQ(chain.size(), 5u);
  EXPECT_EQ(chain[2], h2);
  EXPECT_EQ(arena.get(chain[3]).parent, h2);
  EXPECT_EQ(arena.get(chain[4]).parent, chain[3]);
  EXPECT_EQ(arena.get(chain[4]).miner, kAttacker);
  EXPECT_EQ(arena.get(a3).parent, window.tip());
  // The one unreleased block is a fork at depth 1 on the new tip, and the
  // released tip is the attacker's.
  const selfish::State view =
      window.view(selfish::StepType::kMining, kAttacker, arena);
  EXPECT_EQ(view.c[0][0], 1);
  EXPECT_EQ(view.c[1][0], 0);
  EXPECT_TRUE(view.adversary_owns(1));
  // Growing lane 0 now extends the remainder.
  ASSERT_TRUE(window.grow(0, kAttacker, arena));
  EXPECT_EQ(arena.get(static_cast<chain::BlockId>(arena.size() - 1)).parent,
            a3);
}

TEST(ForkWindow, PrefixLeavesTheForkAndDiscardDropsIt) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 2};
  chain::BlockArena arena;
  sim::ForkWindow window = seeded_window(params, arena);
  ASSERT_TRUE(window.grow(0, kAttacker, arena));  // fork A at depth 1
  ASSERT_TRUE(window.grow(1, kAttacker, arena));  // fork B at depth 1
  const chain::BlockId b1 = static_cast<chain::BlockId>(arena.size() - 1);
  ASSERT_TRUE(window.grow(1, kAttacker, arena));  // B grows to l = 2
  EXPECT_FALSE(window.grow(1, kAttacker, arena));  // capped: proof wasted
  // Lanes: A, B and a new fork at depth 2 (depth 1 has no free slot).
  EXPECT_EQ(window.lanes(), 3u);

  // Slot 0 at depth 1 is the longer fork, B.
  const auto prefix = window.prefix(1, 0, 1);
  ASSERT_EQ(prefix.size(), 1u);
  EXPECT_EQ(prefix[0], b1);
  selfish::State view =
      window.view(selfish::StepType::kHonestFound, kAttacker, arena);
  EXPECT_EQ(view.c[0][0], 2);
  EXPECT_EQ(view.c[0][1], 1);
  EXPECT_EQ(window.public_chain().size(), 3u);

  window.discard(1, 1);  // drops A
  view = window.view(selfish::StepType::kHonestFound, kAttacker, arena);
  EXPECT_EQ(view.c[0][0], 2);
  EXPECT_EQ(view.c[0][1], 0);
  EXPECT_EQ(window.lanes(), 3u);  // B, a free slot at depth 1, depth 2
  EXPECT_THROW(window.discard(1, 1), support::InvalidArgument);
}

TEST(ForkWindow, ExtendPrunesAForkWhoseRootLeavesTheWindow) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  chain::BlockArena arena;
  sim::ForkWindow window = seeded_window(params, arena);
  ASSERT_TRUE(window.grow(1, kAttacker, arena));  // fork at depth 2
  ASSERT_TRUE(window.grow(1, kAttacker, arena));  // fork at depth 1
  selfish::State view =
      window.view(selfish::StepType::kMining, kAttacker, arena);
  EXPECT_EQ(view.c[0][0], 1);
  EXPECT_EQ(view.c[1][0], 1);

  window.extend(arena.add(window.tip(), kHonest));
  view = window.view(selfish::StepType::kMining, kAttacker, arena);
  EXPECT_EQ(view.c[0][0], 0);  // the depth-1 fork is now at depth 2
  EXPECT_EQ(view.c[1][0], 1);  // the depth-2 fork fell out of the window
  EXPECT_EQ(window.lanes(), 2u);
}

TEST(ForkWindow, AdoptRebuildsTheChainAndPrunesOrphanedForks) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 3, .f = 1, .l = 4};
  chain::BlockArena arena;
  sim::ForkWindow window = seeded_window(params, arena);
  const std::vector<chain::BlockId> before = window.public_chain();
  ASSERT_TRUE(window.grow(0, kAttacker, arena));  // fork on h3, depth 1
  ASSERT_TRUE(window.grow(1, kAttacker, arena));  // fork on h2, depth 2

  // A rival branch off h2, one block higher than the window's chain.
  constexpr chain::NodeId kRival = 2;
  const chain::BlockId r3 = arena.add(before[2], kRival);
  const chain::BlockId r4 = arena.add(r3, kRival);
  EXPECT_THROW(window.adopt(r3, arena), support::InvalidArgument);
  window.adopt(r4, arena);

  const std::vector<chain::BlockId> expected{before[0], before[1], before[2],
                                             r3, r4};
  EXPECT_EQ(window.public_chain(), expected);
  // The fork on h3 was orphaned; the one on h2 survives at depth 3.
  const selfish::State view =
      window.view(selfish::StepType::kMining, kAttacker, arena);
  EXPECT_EQ(view.c[0][0], 0);
  EXPECT_EQ(view.c[1][0], 0);
  EXPECT_EQ(view.c[2][0], 1);
  EXPECT_FALSE(view.adversary_owns(1));
}

// Cross-validation: the empirical ERRev of the optimal MDP policy must
// match the stationary prediction. This is the strongest end-to-end test
// in the suite: it exercises model semantics, solver, policy decoding and
// simulator in one chain.
class SimulatorCrossValidation
    : public ::testing::TestWithParam<selfish::AttackParams> {};

TEST_P(SimulatorCrossValidation, EmpiricalMatchesStationary) {
  const selfish::AttackParams params = GetParam();
  const auto model = selfish::build_model(params);
  analysis::AnalysisOptions options;
  options.epsilon = 1e-4;
  const auto result = analysis::analyze(model, options);

  sim::MdpPolicyStrategy strategy(model, result.policy);
  const auto simulated =
      sim::simulate(params, strategy, fast_options(600'000, 99));
  EXPECT_NEAR(simulated.errev, result.errev_of_policy, 0.01)
      << params.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SimulatorCrossValidation,
    ::testing::Values(
        selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 1, .f = 1, .l = 4},
        selfish::AttackParams{.p = 0.3, .gamma = 1.0, .d = 1, .f = 1, .l = 4},
        selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4},
        selfish::AttackParams{.p = 0.2, .gamma = 0.0, .d = 2, .f = 2, .l = 4},
        selfish::AttackParams{.p = 0.35, .gamma = 0.75, .d = 2, .f = 2, .l = 3},
        selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 3, .f = 1, .l = 3}),
    [](const ::testing::TestParamInfo<selfish::AttackParams>& info) {
      const auto& p = info.param;
      return "d" + std::to_string(p.d) + "f" + std::to_string(p.f) + "i" +
             std::to_string(info.index);
    });

}  // namespace
