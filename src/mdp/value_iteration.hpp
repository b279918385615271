// Relative value iteration for mean-payoff MDPs.
//
// The selfish-mining MDP is unichain under every strategy (the all-honest
// reset state is reachable from everywhere) but 2-periodic (mining states
// alternate with decision states), so plain value iteration oscillates.
// We apply the standard aperiodicity transformation P' = τI + (1−τ)P,
// r' = (1−τ)r, which preserves optimal policies, scales the gain by (1−τ),
// and makes the span-seminorm stopping rule applicable:
//
//   min_s (Tv − v)(s)  ≤  gain'  ≤  max_s (Tv − v)(s)
//
// The returned gain is certified to lie in [gain_lo, gain_hi] with
// gain_hi − gain_lo < tol on convergence; the greedy policy is captured
// during the final (certifying) sweep — arg-max w.r.t. the vector that
// sweep backed up from, which at convergence is within tol of the greedy
// policy of the returned values — so convergence costs no extra sweep.
//
// These straightforward implementations are the *reference* solvers: the
// bandwidth-optimized, thread-parallel mdp::BellmanKernel
// (bellman_kernel.hpp) is pinned bit-identical to them by
// test_mdp_kernel, and production paths (analysis::analyze) route
// through the kernel.
#pragma once

#include <cstdint>
#include <vector>

#include "mdp/mdp.hpp"

namespace mdp {

struct MeanPayoffOptions {
  /// Width of the certified gain interval at which iteration stops.
  double tol = 1e-7;
  /// Hard iteration cap; exceeding it reports converged = false.
  int max_iterations = 2'000'000;
  /// Laziness of the aperiodicity transformation, in (0, 1).
  double tau = 0.5;
};

struct MeanPayoffResult {
  double gain = 0.0;     ///< Midpoint of the certified interval.
  double gain_lo = 0.0;  ///< Certified lower bound on the optimal gain.
  double gain_hi = 0.0;  ///< Certified upper bound on the optimal gain.
  std::vector<ActionId> policy;  ///< Greedy positional strategy (global ids).
  std::vector<double> values;    ///< Final relative value vector.
  int iterations = 0;
  bool converged = false;
};

/// Solves max_σ MP(σ) for the reward vector `action_reward` (expected
/// immediate reward per global action id, e.g. Mdp::beta_rewards(β)).
///
/// `warm_start`, if non-null and of size num_states, seeds the value vector
/// (used by Algorithm 1 to reuse values across binary-search steps).
MeanPayoffResult value_iteration(const Mdp& mdp,
                                 const std::vector<double>& action_reward,
                                 const MeanPayoffOptions& options = {},
                                 const std::vector<double>* warm_start = nullptr);

/// Gauss–Seidel variant: Bellman backups update the value vector in place
/// (each state immediately sees its predecessors' new values), which
/// typically cuts the sweep count substantially on the selfish-mining
/// models. Certification is unchanged: whenever the in-place sweeps look
/// converged, one *synchronous* sweep computes the classical Odoni bounds
/// min/max (Tv − v) — valid for an arbitrary value vector — so the
/// returned [gain_lo, gain_hi] interval carries the same guarantee as
/// value_iteration's. `iterations` counts both sweep kinds.
MeanPayoffResult gauss_seidel_value_iteration(
    const Mdp& mdp, const std::vector<double>& action_reward,
    const MeanPayoffOptions& options = {},
    const std::vector<double>* warm_start = nullptr);

}  // namespace mdp
