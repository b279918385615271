// The efficient-proof-system attacker agent: replays a sim::Strategy
// (typically the optimal policy computed by Algorithm 1, or one loaded
// from a strategy file via analysis/strategy_io) inside the network
// simulator.
//
// The agent runs the concrete protocol world of sim::simulate — one
// sim::ForkWindow over the network's shared block arena: its local public
// chain plus the live private forks of the (d, f, l) model, one mining
// lane per live target (NaS multi-fork mining) and the canonical abstract
// (C, O, type) view at every decision point — and executes the strategy's
// release actions as real broadcasts. In a zero-delay network under
// TiePolicy::kGammaShared this reproduces the MDP's semantics exactly, so
// the measured relative revenue converges to the analysis-predicted ERRev
// — the subsystem's key correctness hook (tests/test_net_validation.cpp).
#pragma once

#include <memory>
#include <string>

#include "mdp/markov_chain.hpp"
#include "net/miner.hpp"
#include "selfish/build.hpp"

namespace net {

struct StrategyMinerConfig {
  selfish::AttackParams params;  ///< Must match the model when policy-backed.
  /// "optimal" replays `policy` on `model`; "honest" / "never-release" use
  /// the policy-free builtin strategies (model may then be null).
  std::string strategy = "optimal";
  /// Tie policy the *network* runs under. kGammaPerMiner is rejected: the
  /// agent's bookkeeping must know a tie race's outcome at release time,
  /// which only the shared-coin (or first-seen, i.e. gamma = 0) modes
  /// provide.
  TiePolicy tie_policy = TiePolicy::kGammaShared;
  double gamma = 0.5;  ///< Tie coin; should match params.gamma.
};

/// Builds the strategy-replaying attacker. `model` and `policy` are shared
/// so batch runs across threads can reuse one analysis result.
std::unique_ptr<Miner> make_strategy_miner(
    const StrategyMinerConfig& config,
    std::shared_ptr<const selfish::SelfishModel> model,
    std::shared_ptr<const mdp::Policy> policy);

}  // namespace net
