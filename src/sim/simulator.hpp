// Monte-Carlo simulation of the selfish-mining protocol.
//
// The simulator executes the blockchain protocol against *concrete*
// blocks: it drives a sim::ForkWindow (the attacker's public chain and
// private forks over a chain::BlockArena, the same world the network
// simulator's strategy miner runs) with the paper's discrete mining steps.
// Publication truncates and rewrites the public chain, and revenue is
// counted by walking the final chain — completely independently of the
// MDP's RewardCounts. It follows the semantics of DESIGN.md §3 (pending
// honest block, γ tie races, fork window of depth d, fork cap l), so the
// empirical relative revenue of a strategy must converge to the ERRev the
// MDP analysis predicts — the cross-validation exercised by tests and the
// bench_simulation harness. A run reports its end-of-run revenue and
// counters only; the final chain is walked once, after the last step.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "chain/stats.hpp"
#include "selfish/actions.hpp"
#include "selfish/params.hpp"

namespace sim {

/// A selfish-mining strategy: chooses the adversary's reaction at each
/// decision point (a block having just been found). The view passed in is
/// the canonical abstract state (C, O, type) derived from the concrete
/// chain; the returned action must be available in that state.
class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual selfish::Action decide(const selfish::State& view) = 0;
};

struct SimulationOptions {
  std::uint64_t steps = 500'000;        ///< Mining steps to simulate.
  std::uint64_t warmup_steps = 20'000;  ///< Steps excluded from accounting.
  std::uint64_t seed = 0x5e1f15ULL;
};

struct SimulationResult {
  chain::OwnershipCount revenue;  ///< Final-chain blocks after warmup.
  double errev = 0.0;             ///< revenue.relative_revenue().

  /// Owners of the counted final-chain segment, oldest block first; feed
  /// to chain::window_quality for (μ, ℓ)-chain-quality measurements.
  std::vector<chain::Owner> final_owners;

  // Event counters (diagnostics).
  std::uint64_t adversary_blocks_mined = 0;
  std::uint64_t adversary_blocks_wasted = 0;  ///< Mined into capped forks.
  std::uint64_t honest_blocks_mined = 0;
  std::uint64_t releases = 0;
  std::uint64_t races_won = 0;
  std::uint64_t races_lost = 0;
  std::uint64_t overrides = 0;  ///< Releases that orphaned a pending block
                                ///< outright (k ≥ i+1).
};

/// Runs the protocol for `options.steps` mining steps under `strategy`.
SimulationResult simulate(const selfish::AttackParams& params,
                          Strategy& strategy,
                          const SimulationOptions& options = {});

}  // namespace sim
