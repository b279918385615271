// Long-run finalization rates of a fixed strategy.
//
// evaluate_policy_counters solves for the stationary distribution of the
// chain a positional policy induces, once, and averages the two
// finalization counters (adversary, honest) over it; the exact ERRev of
// the strategy is then g_A / (g_A + g_H).
#pragma once

#include "mdp/markov_chain.hpp"
#include "mdp/mdp.hpp"

namespace mdp {

struct CounterRates {
  double adversary = 0.0;  ///< Long-run finalized adversary blocks / step.
  double honest = 0.0;     ///< Long-run finalized honest blocks / step.

  /// ERRev of the policy: adversary / (adversary + honest).
  /// Well-defined for the selfish-mining models, where the total
  /// finalization rate is bounded below by (1−p)/(1−p+p·d·f) > 0.
  double ratio() const { return adversary / (adversary + honest); }
};

/// Long-run rates of both finalization counters under `policy`.
CounterRates evaluate_policy_counters(const Mdp& mdp, const Policy& policy);

}  // namespace mdp
