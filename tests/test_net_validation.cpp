// The subsystem's correctness anchor (ISSUE acceptance criterion): a
// zero-delay, single-attacker network scenario replaying the optimal
// MDP strategy must reproduce the ERRev the formal analysis predicts for
// the matching (p, gamma) — within 1% relative error, for at least two
// parameter points.
//
// Why this must hold: with zero delays and the shared-coin tie policy the
// network collapses to the abstract protocol of sim/simulator.cpp — the
// exponential clocks realize the (p, k)-mining step distribution, the
// agent runs the simulator's own fork window (sim::ForkWindow), and the
// shared coin is the model's atomic gamma race — so the empirical
// relative revenue is a Monte-Carlo estimate of the exact stationary
// ERRev.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "net/batch.hpp"
#include "net/scenario.hpp"

namespace {

void expect_network_matches_analysis(double p, double gamma) {
  net::ScenarioOptions options;
  options.p = p;
  options.gamma = gamma;
  options.delay = 0.0;
  options.blocks = 120'000;
  const auto grid = net::make_scenarios("single-optimal", options);
  ASSERT_EQ(grid.size(), 1u);

  net::BatchOptions batch;
  batch.runs_per_scenario = 4;
  batch.threads = 1;
  batch.base_seed = 0xa11ce;
  const auto aggregates = net::run_batch(grid, batch);
  ASSERT_EQ(aggregates.size(), 1u);

  const double predicted = aggregates[0].predicted_errev;
  const double simulated = aggregates[0].attacker_share.mean();
  ASSERT_FALSE(std::isnan(predicted));
  ASSERT_GT(predicted, 0.0);
  EXPECT_LT(std::fabs(simulated - predicted) / predicted, 0.01)
      << "p=" << p << " gamma=" << gamma << ": network " << simulated
      << " vs analysis " << predicted;
}

TEST(NetValidation, ZeroDelayReproducesMdpErrevPoint1) {
  expect_network_matches_analysis(0.30, 0.50);
}

TEST(NetValidation, ZeroDelayReproducesMdpErrevPoint2) {
  expect_network_matches_analysis(0.25, 0.00);
}

// Exact result of one zero-delay single-optimal run, recorded before the
// strategy miner ran on sim::ForkWindow.
TEST(NetValidation, ZeroDelayRunReproducesRecordedResult) {
  net::ScenarioOptions options;
  options.delay = 0.0;
  options.blocks = 20'000;
  const auto grid = net::make_scenarios("single-optimal", options);
  ASSERT_EQ(grid.size(), 1u);
  const auto result = net::run_scenario(net::prepare_scenario(grid[0]), 99);
  EXPECT_EQ(result.events, 72719u);
  EXPECT_EQ(result.mine_events, 20000u);
  EXPECT_EQ(result.arena_blocks, 19999u);
  EXPECT_EQ(result.tip_height, 12839u);
  EXPECT_EQ(result.counted, 11811u);
  EXPECT_EQ(result.races, 3715u);
  EXPECT_EQ(result.races_resolved, 1420u);
  EXPECT_EQ(result.races_challenger_won, 788u);
  EXPECT_DOUBLE_EQ(result.sim_time, 9118990.5794431027);
  const std::vector<std::uint64_t> canonical{4815, 2264, 2388, 2344};
  const std::vector<std::uint64_t> mined{9132, 3578, 3660, 3630};
  const std::vector<std::uint64_t> wasted{1, 0, 0, 0};
  EXPECT_EQ(result.canonical, canonical);
  EXPECT_EQ(result.mined, mined);
  EXPECT_EQ(result.wasted, wasted);
}

TEST(NetValidation, AttackerBeatsHonestShareAboveThreshold) {
  // At p = 0.3, gamma = 0.5 the optimal strategy is strictly unfair.
  net::ScenarioOptions options;
  options.p = 0.3;
  options.gamma = 0.5;
  options.blocks = 60'000;
  const auto grid = net::make_scenarios("single-optimal", options);
  const auto result =
      net::run_scenario(net::prepare_scenario(grid[0]), 99);
  EXPECT_GT(result.share(0), 0.35);
}

}  // namespace
