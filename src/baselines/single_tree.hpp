// Baseline 2 (paper §4): single-tree selfish mining.
//
// The classic Eyal–Sirer attack extended to efficient proof systems: the
// adversary grows one private *tree* rooted at the fork point (the public
// tip when the round starts), bounded to depth ≤ max_depth and ≤ max_width
// nodes per level, while the honest miners extend the public chain. The
// fixed (non-optimized) strategy publishes the deepest tree path the moment
// the public chain catches up with the tree depth; the resulting tie is won
// with the switching probability γ.
//
// Because node counts per level and the public-chain length only grow
// within a round, one round is an absorbing DAG — the expected adversary /
// honest block counts per round are computed exactly by memoized recursion,
// and ERRev follows from the renewal-reward theorem:
//   ERRev = E[A per round] / (E[A per round] + E[H per round]).
#pragma once

#include <cstddef>

namespace baselines {

struct SingleTreeParams {
  double p = 0.1;      ///< Adversary's relative resource, in [0, 1].
  double gamma = 0.5;  ///< Tie-race switching probability.
  int max_depth = 4;   ///< Maximal private tree depth (paper: l = 4).
  int max_width = 5;   ///< Maximal nodes per tree level (paper: f = 5).

  void validate() const;
};

struct SingleTreeResult {
  double errev = 0.0;               ///< Expected relative revenue.
  double expected_adversary = 0.0;  ///< E[adversary blocks per round].
  double expected_honest = 0.0;     ///< E[honest blocks per round].
  std::size_t states_evaluated = 0; ///< Distinct round states visited.
};

/// Exact analysis of the single-tree attack.
SingleTreeResult analyze_single_tree(const SingleTreeParams& params);

/// ERRev of the single-tree attack at the paper's bounds (the defaults of
/// SingleTreeParams), or NaN at p = 1, where a round never ends and the
/// baseline has no value. The `baselines` report and the sweep CSV print it.
double single_tree_errev(double p, double gamma);

}  // namespace baselines
