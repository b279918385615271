// Markov-chain analyses of an MDP under a fixed positional strategy.
//
// Used for (a) the exact ERRev of a computed strategy via the renewal
// ratio g_A / (g_A + g_H) and (b) structural sanity checks (reachability,
// unichain validation) exercised by the tests.
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

struct StationaryResult {
  std::vector<double> distribution;  ///< μ with μP = μ, Σμ = 1.
  int iterations = 0;
  bool converged = false;
};

/// Stationary distribution of the chain induced by `policy`, computed by
/// lazy power iteration started from the initial state; it stops once
/// one iteration changes μ by less than 1e-12 in L1. For a unichain
/// model this converges to the unique stationary distribution of the
/// recurrent class reachable from the initial state.
StationaryResult stationary_distribution(const Mdp& mdp, const Policy& policy);

/// Long-run average of a per-action reward under `policy`:
/// Σ_s μ(s) · reward[policy(s)].
double policy_gain(const Mdp& mdp, const Policy& policy,
                   const std::vector<double>& action_reward,
                   const std::vector<double>& stationary);

}  // namespace mdp
