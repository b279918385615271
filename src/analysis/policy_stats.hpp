// Structural statistics of a selfish-mining strategy.
//
// Aggregates what the optimal play actually does in the long run: how often
// each decision type withholds vs releases, which (depth, length) releases
// carry the revenue, how deep races and overrides reach, and the expected
// amount of withheld blocks, weighted by a stationary distribution the
// caller already holds (AnalysisResult::stationary). Powers the `analyze`
// report, strategy_explorer and the strategy-shape assertions in the tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mdp/markov_chain.hpp"
#include "selfish/build.hpp"

namespace analysis {

struct ReleaseStat {
  int depth = 0;    ///< Root depth i of the released fork.
  int length = 0;   ///< Number of blocks k published.
  bool race = false;  ///< True when this release ties a pending block.
  double frequency = 0.0;  ///< Long-run executions per MDP step.
};

struct PolicyStats {
  /// Long-run probability that a decision state (given its type) chooses
  /// some release rather than mine, conditioned on visiting that type.
  double release_rate_after_adversary_block = 0.0;
  double release_rate_after_honest_block = 0.0;

  /// Expected number of withheld private blocks (Σ C) in steady state.
  double mean_withheld_blocks = 0.0;
  /// Largest withheld total over states the strategy actually visits.
  int max_withheld_blocks = 0;

  /// Per-(depth, length) release frequencies, sorted by frequency.
  std::vector<ReleaseStat> releases;

  /// Long-run rates of race events (per MDP step).
  double race_rate = 0.0;      ///< Tie releases (k = i at a pending block).
  double override_rate = 0.0;  ///< Strict overrides (k ≥ i+1, pending).

  std::string to_string() const;
};

/// Computes the statistics of `policy` from `stationary`, the stationary
/// distribution of its chain (states below `cutoff` are ignored).
PolicyStats compute_policy_stats(const selfish::SelfishModel& model,
                                 const mdp::Policy& policy,
                                 const std::vector<double>& stationary,
                                 double cutoff = 1e-12);

}  // namespace analysis
