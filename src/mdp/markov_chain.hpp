// Markov-chain analyses of an MDP under a fixed positional strategy.
//
// Used for (a) evaluating a computed strategy: one stationary solve gives
// both the exact ERRev g_A / (g_A + g_H) and the strategy's statistics;
// and (b) structural sanity checks (reachability, unichain validation).
#pragma once

#include <cstdint>
#include <vector>

#include "mdp/mdp.hpp"

namespace mdp {

/// A positional strategy: one global action id per state; the action must
/// belong to the state it is assigned to.
using Policy = std::vector<ActionId>;

/// Throws support::InvalidArgument unless `policy` assigns each state one
/// of its own actions.
void validate_policy(const Mdp& mdp, const Policy& policy);

/// States reachable from `from` under *some* action (BFS over all actions).
std::vector<bool> reachable_states(const Mdp& mdp, StateId from);

/// States reachable from `from` under the fixed `policy`.
std::vector<bool> reachable_states(const Mdp& mdp, const Policy& policy,
                                   StateId from);

/// Long-run rates of the two finalization counters under a strategy.
struct CounterRates {
  double adversary = 0.0;  ///< Long-run finalized adversary blocks / step.
  double honest = 0.0;     ///< Long-run finalized honest blocks / step.

  /// ERRev of the policy: adversary / (adversary + honest).
  /// Well-defined for the selfish-mining models, where the total
  /// finalization rate is bounded below by selfish::min_finalization_rate
  /// (selfish/transitions.hpp), which is positive for p < 1.
  double ratio() const { return adversary / (adversary + honest); }
};

struct StationaryResult {
  std::vector<double> distribution;  ///< μ with μP = μ, Σμ = 1.
  /// Σ_s μ(s) · expected_{adversary,honest}(policy(s)).
  CounterRates rates;
  int iterations = 0;
};

/// Stationary distribution of the chain induced by `policy`, computed by
/// lazy power iteration started from the initial state, and the counter
/// rates averaged over it. It stops once one iteration changes μ by less
/// than 1e-12 in L1, and throws support::InternalError if its iteration
/// cap comes first. For a unichain model this converges to the unique
/// stationary distribution of the recurrent class reachable from the
/// initial state.
StationaryResult stationary_distribution(const Mdp& mdp, const Policy& policy);

}  // namespace mdp
