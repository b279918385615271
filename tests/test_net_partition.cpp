// Partition-schedule tests: while a split window is active each side
// extends its own chain; after the window heals the sides resynchronize
// (recursive parent fetch across the healed edges) and converge on one
// longest chain. Also pins the partition-window validation rules and the
// partition-attack scenario family.
#include <gtest/gtest.h>

#include <vector>

#include "net/network.hpp"
#include "net/scenario.hpp"
#include "net/topology.hpp"

namespace {

// Four equal honest miners, {0, 1} vs {2, 3} split for [start, end).
// Mean block interval 60s, so a 6000s window covers ~100 blocks.
net::NetworkConfig split_config(net::PropagationMode mode, double start,
                                double end, std::uint64_t blocks) {
  net::NetworkConfig config;
  config.topology = net::Topology::uniform(4, 1.0);
  net::PartitionWindow window;
  window.start = start;
  window.end = end;
  window.group = {0, 0, 1, 1};
  config.topology.add_partition(window);
  config.propagation = mode;
  config.block_interval = 60.0;
  config.blocks = blocks;
  config.warmup_heights = 10;
  config.confirm_depth = 3;
  config.seed = 21;
  return config;
}

std::vector<net::MinerSetup> honest_quad() {
  std::vector<net::MinerSetup> miners;
  for (int i = 0; i < 4; ++i) {
    net::MinerSetup setup;
    setup.agent = net::make_honest_miner(net::TiePolicy::kFirstSeen, 0.0);
    setup.weight = 1.0;
    miners.push_back(std::move(setup));
  }
  return miners;
}

TEST(NetPartition, SplitSidesExtendTheirOwnChains) {
  // The window never heals inside the run: the two sides must end on
  // different branches, and both must have kept mining (the arena holds
  // far more blocks than the canonical chain).
  for (const auto mode : {net::PropagationMode::kDirect,
                          net::PropagationMode::kGossip}) {
    const auto result = net::run_network(
        split_config(mode, 600.0, 1e9, /*blocks=*/200), honest_quad());
    SCOPED_TRACE(net::to_string(mode));
    ASSERT_EQ(result.final_tips.size(), 4u);
    EXPECT_EQ(result.final_tips[0], result.final_tips[1]);
    EXPECT_EQ(result.final_tips[2], result.final_tips[3]);
    EXPECT_NE(result.final_tips[0], result.final_tips[2]);
    EXPECT_FALSE(result.converged);
    EXPECT_GT(result.cut_sends, 0u);
    // Both branches grew: the doomed side's blocks are stale.
    EXPECT_GT(result.stale_rate(), 0.1);
  }
}

TEST(NetPartition, HealedSplitReconvergesOnLongestChain) {
  // Split for [600, 6600), then ~400 more blocks of healed time: the
  // first block crossing a healed edge drags the missing ancestry over
  // via recursive parent fetches (kSync events), after which the shorter
  // branch is abandoned and every miner agrees on one tip.
  for (const auto mode : {net::PropagationMode::kDirect,
                          net::PropagationMode::kGossip}) {
    const auto result = net::run_network(
        split_config(mode, 600.0, 6600.0, /*blocks=*/500), honest_quad());
    SCOPED_TRACE(net::to_string(mode));
    EXPECT_TRUE(result.converged);
    EXPECT_GT(result.cut_sends, 0u);
    EXPECT_GT(result.sync_arrivals, 0u);  // ancestors were fetched
    EXPECT_GT(result.stale_rate(), 0.05); // the losing branch died
    // The canonical chain kept growing through the split (the window
    // counts both sides' contributions before the fork point plus the
    // winner's afterwards).
    EXPECT_GT(result.tip_height, 300u);
  }
}

TEST(NetPartition, WindowBeyondTheRunNeverCuts) {
  const auto result = net::run_network(
      split_config(net::PropagationMode::kGossip, 1e18, 2e18, 150),
      honest_quad());
  EXPECT_EQ(result.cut_sends, 0u);
  EXPECT_EQ(result.sync_arrivals, 0u);
  EXPECT_TRUE(result.converged);
}

TEST(NetPartition, WindowValidation) {
  auto topology = net::Topology::uniform(3, 0.0);
  net::PartitionWindow bad_size;
  bad_size.start = 1.0;
  bad_size.end = 2.0;
  bad_size.group = {0, 1};  // 2 entries for 3 nodes
  EXPECT_THROW(topology.add_partition(bad_size),
               support::InvalidArgument);

  net::PartitionWindow bad_order;
  bad_order.start = 5.0;
  bad_order.end = 5.0;  // empty window
  bad_order.group = {0, 1, 1};
  EXPECT_THROW(topology.add_partition(bad_order),
               support::InvalidArgument);

  net::PartitionWindow good;
  good.start = 5.0;
  good.end = 8.0;
  good.group = {0, 1, 1};
  topology.add_partition(good);
  EXPECT_TRUE(topology.cut(0, 1, 5.0));
  EXPECT_TRUE(topology.cut(1, 0, 7.9));
  EXPECT_FALSE(topology.cut(1, 2, 6.0));  // same side
  EXPECT_FALSE(topology.cut(0, 1, 4.9));  // before the split
  EXPECT_FALSE(topology.cut(0, 1, 8.0));  // healed (end exclusive)
  EXPECT_EQ(topology.partitions().size(), 1u);
}

TEST(NetPartition, PartitionAttackFamilyRunsAndCuts) {
  net::ScenarioOptions options;
  options.blocks = 4'000;
  options.p = 0.3;
  const auto grid = net::make_scenarios("partition-attack", options);
  ASSERT_EQ(grid.size(), 1u);
  ASSERT_FALSE(grid[0].topology.partitions().empty());
  const auto result =
      net::run_scenario(net::prepare_scenario(grid[0]), 7);
  EXPECT_GT(result.tip_height, 0u);
  EXPECT_GT(result.cut_sends, 0u);  // the window overlapped the run
}

TEST(NetPartition, PartitionAttackRejectsBadWindows) {
  net::ScenarioOptions options;
  options.partition_fraction = 1.5;
  EXPECT_THROW(net::make_scenarios("partition-attack", options),
               support::InvalidArgument);
  options.partition_fraction = 0.5;
  options.partition_start = 0.5;
  options.partition_stop = 0.25;
  EXPECT_THROW(net::make_scenarios("partition-attack", options),
               support::InvalidArgument);
}

}  // namespace
