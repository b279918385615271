#include "mdp/value_iteration.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/check.hpp"

namespace mdp {

namespace {

/// One Bellman backup of state `s`; returns the best Q-value and the
/// arg-max action (lowest index wins ties for determinism).
inline double bellman_best(const Mdp& mdp,
                           const std::vector<double>& action_reward,
                           const std::vector<double>& v, StateId s,
                           ActionId* best_action) {
  double best = -std::numeric_limits<double>::infinity();
  ActionId best_a = kInvalidAction;
  const ActionId end = mdp.action_end(s);
  for (ActionId a = mdp.action_begin(s); a < end; ++a) {
    double q = action_reward[a];
    for (std::uint32_t i = mdp.transition_begin(a); i < mdp.transition_end(a);
         ++i) {
      q += mdp.prob(i) * v[mdp.target(i)];
    }
    if (q > best) {
      best = q;
      best_a = a;
    }
  }
  if (best_action != nullptr) *best_action = best_a;
  return best;
}

}  // namespace

MeanPayoffResult value_iteration(const Mdp& mdp,
                                 const std::vector<double>& action_reward,
                                 const MeanPayoffOptions& options,
                                 const std::vector<double>* warm_start) {
  const StateId n = mdp.num_states();
  SM_REQUIRE(action_reward.size() == mdp.num_actions(),
             "reward vector size ", action_reward.size(),
             " != number of actions ", mdp.num_actions());
  SM_REQUIRE(options.tau > 0.0 && options.tau < 1.0,
             "tau must lie strictly inside (0,1): ", options.tau);
  SM_REQUIRE(options.tol > 0.0, "tolerance must be positive");
  SM_REQUIRE(options.max_iterations >= 1,
             "need at least one iteration, got ", options.max_iterations);

  MeanPayoffResult result;
  std::vector<double>& v = result.values;
  if (warm_start != nullptr && warm_start->size() == n) {
    v = *warm_start;
  } else {
    v.assign(n, 0.0);
  }
  std::vector<double> v_next(n, 0.0);
  result.policy.assign(n, kInvalidAction);

  const double tau = options.tau;
  const double one_minus_tau = 1.0 - tau;

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    double delta_lo = std::numeric_limits<double>::infinity();
    double delta_hi = -std::numeric_limits<double>::infinity();
    for (StateId s = 0; s < n; ++s) {
      const double bellman =
          bellman_best(mdp, action_reward, v, s, &result.policy[s]);
      // Lazy update = value iteration on the transformed (aperiodic) MDP.
      const double updated = one_minus_tau * bellman + tau * v[s];
      const double delta = updated - v[s];
      if (delta < delta_lo) delta_lo = delta;
      if (delta > delta_hi) delta_hi = delta;
      v_next[s] = updated;
    }
    result.iterations = iter;
    // Gain of the transformed MDP is (1−τ)·gain; undo the scaling.
    result.gain_lo = delta_lo / one_minus_tau;
    result.gain_hi = delta_hi / one_minus_tau;

    // Renormalize to keep values bounded; uniform shifts do not affect
    // Bellman differences.
    const double shift = v_next[0];
    for (StateId s = 0; s < n; ++s) v[s] = v_next[s] - shift;

    if (result.gain_hi - result.gain_lo < options.tol) {
      result.converged = true;
      break;
    }
  }

  result.gain = 0.5 * (result.gain_lo + result.gain_hi);
  // result.policy was captured by the final sweep (greedy w.r.t. the
  // vector that sweep backed up from, within tol of the returned values'
  // greedy policy once converged) — no extra extraction sweep.
  return result;
}

MeanPayoffResult gauss_seidel_value_iteration(
    const Mdp& mdp, const std::vector<double>& action_reward,
    const MeanPayoffOptions& options,
    const std::vector<double>* warm_start) {
  const StateId n = mdp.num_states();
  SM_REQUIRE(action_reward.size() == mdp.num_actions(),
             "reward vector size ", action_reward.size(),
             " != number of actions ", mdp.num_actions());
  SM_REQUIRE(options.tau > 0.0 && options.tau < 1.0,
             "tau must lie strictly inside (0,1): ", options.tau);
  SM_REQUIRE(options.tol > 0.0, "tolerance must be positive");
  SM_REQUIRE(options.max_iterations >= 1,
             "need at least one iteration, got ", options.max_iterations);

  MeanPayoffResult result;
  std::vector<double>& v = result.values;
  if (warm_start != nullptr && warm_start->size() == n) {
    v = *warm_start;
  } else {
    v.assign(n, 0.0);
  }
  result.policy.assign(n, kInvalidAction);

  const double tau = options.tau;
  const double one_minus_tau = 1.0 - tau;

  // True when result.policy is greedy w.r.t. the vector the most recent
  // certifying sweep read (no in-place sweep has moved v since).
  bool policy_fresh = false;

  // A synchronous Bellman sweep yields the classical arbitrary-v bounds
  // min/max (Tv − v) on the transformed gain; we use it as the certifier
  // (and it captures the greedy policy as a side effect).
  const auto certify = [&](std::vector<double>& scratch) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (StateId s = 0; s < n; ++s) {
      const double updated =
          one_minus_tau *
              bellman_best(mdp, action_reward, v, s, &result.policy[s]) +
          tau * v[s];
      const double delta = updated - v[s];
      if (delta < lo) lo = delta;
      if (delta > hi) hi = delta;
      scratch[s] = updated;
    }
    const double shift = scratch[0];
    for (StateId s = 0; s < n; ++s) v[s] = scratch[s] - shift;
    policy_fresh = true;
    result.gain_lo = lo / one_minus_tau;
    result.gain_hi = hi / one_minus_tau;
    return result.gain_hi - result.gain_lo < options.tol;
  };

  std::vector<double> scratch(n, 0.0);
  int iter = 0;
  // In-place backups absorb the mean-payoff drift non-uniformly (each
  // state sees a different mix of updated predecessors), so plain GS would
  // converge to something other than the bias. The fix is the classical
  // one: subtract the current gain estimate inside the sweep — the update
  // becomes GS on the *Poisson equation* h = T'h − g'·1, whose fixpoint is
  // the true bias — and refresh the gain estimate from the certifying
  // synchronous sweeps.
  double gain_prime_estimate = 0.0;  // gain of the transformed MDP
  constexpr int kCertifyEvery = 16;
  int sweeps_since_certify = 0;
  while (iter < options.max_iterations) {
    ++iter;
    ++sweeps_since_certify;
    policy_fresh = false;
    double change = 0.0;
    for (StateId s = 0; s < n; ++s) {
      const double updated =
          one_minus_tau * bellman_best(mdp, action_reward, v, s, nullptr) +
          tau * v[s] - gain_prime_estimate;
      const double diff = std::fabs(updated - v[s]);
      if (diff > change) change = diff;
      v[s] = updated;  // in place: later states see this immediately
    }
    const double shift = v[0];
    for (StateId s = 0; s < n; ++s) v[s] -= shift;

    if ((change < 0.25 * options.tol ||
         sweeps_since_certify >= kCertifyEvery) &&
        iter < options.max_iterations) {
      ++iter;
      sweeps_since_certify = 0;
      const bool done = certify(scratch);
      gain_prime_estimate =
          0.5 * (result.gain_lo + result.gain_hi) * one_minus_tau;
      if (done) {
        result.converged = true;
        break;
      }
    }
  }
  result.iterations = iter;
  result.gain = 0.5 * (result.gain_lo + result.gain_hi);
  if (!policy_fresh) {
    // Only reachable without convergence (the converged exit leaves the
    // final certifier's policy in place): extract against the current v
    // so the returned policy is at least self-consistent.
    for (StateId s = 0; s < n; ++s) {
      bellman_best(mdp, action_reward, v, s, &result.policy[s]);
    }
  }
  return result;
}

}  // namespace mdp
