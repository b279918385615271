// Exact gain/bias solver for small unichain models, by Gaussian elimination.
//
// For a fixed policy π on a unichain MDP, the gain g and bias h satisfy
//
//   h(s) + g − r(s, π(s)) − Σ_t P(t | s, π(s)) · h(t) = 0   for all s,
//   h(ref) = 0.
//
// That is n+1 linear equations in n+1 unknowns (h, g). We solve them with
// partial-pivoting Gaussian elimination — O(n³), intended for models with
// up to a few thousand states. dense_policy_iteration combines it with
// Howard improvement for an exact optimal gain. Both are test oracles
// only: the tests check the kernel's certified gain intervals and
// Algorithm 1's strategies against them; no option selects them.
#pragma once

#include <vector>

#include "mdp/markov_chain.hpp"
#include "mdp/mdp.hpp"

namespace mdp {

struct DenseEvaluation {
  double gain = 0.0;
  std::vector<double> bias;  ///< h with h[0] = 0.
};

/// Solves the gain/bias linear system for `policy` exactly.
/// Throws support::Error if the system is singular (policy not unichain).
DenseEvaluation dense_evaluate_policy(const Mdp& mdp, const Policy& policy,
                                      const std::vector<double>& action_reward);

struct DensePolicyIterationResult {
  double gain = 0.0;
  Policy policy;
  bool converged = false;
};

/// Howard policy iteration with exact dense evaluation. An action replaces
/// the incumbent only when its Q-value is higher by more than 1e-10, so
/// numerically tied actions cannot make it cycle; it gives up after 1000
/// rounds with converged = false.
DensePolicyIterationResult dense_policy_iteration(
    const Mdp& mdp, const std::vector<double>& action_reward);

/// Solves a general dense linear system A·x = b in place (partial
/// pivoting). Exposed for reuse by the single-tree baseline's absorbing
/// chain analysis. Throws support::Error when A is singular.
std::vector<double> solve_linear_system(std::vector<std::vector<double>> a,
                                        std::vector<double> b);

}  // namespace mdp
