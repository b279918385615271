// Relative value iteration for mean-payoff MDPs, on the mining-step
// operator.
//
// The selfish-mining MDP is unichain under every strategy (the all-honest
// reset state is reachable from everywhere) but 2-periodic: every mining
// state leads only to decision states and every decision state only back
// to mining states (§3.2; mdp::step_classes finds the split). So plain
// synchronous value iteration oscillates. Instead each sweep advances two
// MDP steps in two synchronous passes over one value vector:
//
//   decision states s:  q(s)  = max_a [r(a) + Σ_t P(a,t) w(t)]
//   mining states m:    w'(m) = max_a [r(a) + Σ_s P(a,s) q(s)]
//
// Neither class reads its own values, so the passes are exact backups of
// the two-step chain on the mining states. On the selfish models that
// chain is aperiodic (the empty-window mining state returns to itself
// whenever an honest block is found), so no lazy transform is needed.
// Odoni's bounds for it hold for any w:
//
//   min_m (w' − w)(m)  ≤  two-step gain  ≤  max_m (w' − w)(m)
//
// and the gain per MDP step is exactly half the two-step gain, so the
// reported [gain_lo, gain_hi] is the halved interval. The greedy policy is
// captured by the two passes of the final (certifying) sweep, so its own
// gain is at least gain_lo, and convergence costs no extra sweep.
//
// This straightforward loop is the test oracle and keeps only the tol
// rule. Production paths (analysis::analyze, threshold probes) route
// through the thread-parallel mdp::BellmanKernel (bellman_kernel.hpp),
// which runs the same sweep and also stops once the interval excludes 0,
// because its callers need only the gain's sign. test_mdp_kernel pins a
// kernel solve of k sweeps bit-identical to this loop capped at
// max_iterations = k.
#pragma once

#include <cstdint>
#include <vector>

#include "mdp/mdp.hpp"

namespace mdp {

struct MeanPayoffOptions {
  /// Width of the certified gain interval (per MDP step) at which iteration
  /// stops (the kernel stops earlier once the interval excludes 0).
  double tol = 1e-7;
  /// Hard sweep cap; exceeding it reports converged = false.
  int max_iterations = 2'000'000;
};

struct MeanPayoffResult {
  double gain = 0.0;     ///< Midpoint of the certified interval.
  double gain_lo = 0.0;  ///< Certified lower bound on the optimal gain.
  double gain_hi = 0.0;  ///< Certified upper bound on the optimal gain.
  std::vector<ActionId> policy;  ///< Greedy positional strategy (global ids).
  /// Final relative values: w' on the mining states (0 at the initial
  /// state), the last sweep's q on the decision states.
  std::vector<double> values;
  int iterations = 0;  ///< Sweeps run, two MDP steps each.
  bool converged = false;  ///< The stop rule fired before the cap.
};

/// Solves max_σ MP(σ) for the reward vector `action_reward` (expected
/// immediate reward per global action id, e.g. Mdp::beta_rewards(β)) on a
/// 2-periodic model; throws support::InvalidArgument when the model has no
/// mining/decision split (mdp::step_classes).
///
/// `warm_start`, if non-null and of size num_states, seeds the mining
/// states' values (the decision values are recomputed by the first pass).
MeanPayoffResult value_iteration(const Mdp& mdp,
                                 const std::vector<double>& action_reward,
                                 const MeanPayoffOptions& options = {},
                                 const std::vector<double>* warm_start = nullptr);

}  // namespace mdp
