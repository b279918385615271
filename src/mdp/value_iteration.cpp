#include "mdp/value_iteration.hpp"

#include <limits>

#include "mdp/markov_chain.hpp"
#include "support/check.hpp"

namespace mdp {

namespace {

/// One Bellman backup of state `s`; returns the best Q-value and writes the
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
  *best_action = best_a;
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
  SM_REQUIRE(options.tol > 0.0, "tolerance must be positive");
  SM_REQUIRE(options.max_iterations >= 1,
             "need at least one iteration, got ", options.max_iterations);
  const std::vector<StepClass> classes = step_classes(mdp);

  MeanPayoffResult result;
  std::vector<double>& v = result.values;
  if (warm_start != nullptr && warm_start->size() == n) {
    v = *warm_start;
  } else {
    v.assign(n, 0.0);
  }
  std::vector<double> w_next(n, 0.0);
  result.policy.assign(n, kInvalidAction);

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    // Decision pass: q = T_D w, reading only mining values.
    for (StateId s = 0; s < n; ++s) {
      if (classes[s] != StepClass::kDecision) continue;
      v[s] = bellman_best(mdp, action_reward, v, s, &result.policy[s]);
    }
    // Mining pass: w' = T_M q, reading only decision values.
    double delta_lo = std::numeric_limits<double>::infinity();
    double delta_hi = -std::numeric_limits<double>::infinity();
    for (StateId m = 0; m < n; ++m) {
      if (classes[m] != StepClass::kMining) continue;
      w_next[m] = bellman_best(mdp, action_reward, v, m, &result.policy[m]);
      const double delta = w_next[m] - v[m];
      if (delta < delta_lo) delta_lo = delta;
      if (delta > delta_hi) delta_hi = delta;
    }
    result.iterations = iter;
    // Odoni's bounds on the two-step gain, halved to one MDP step.
    result.gain_lo = 0.5 * delta_lo;
    result.gain_hi = 0.5 * delta_hi;

    // Renormalize to keep values bounded; uniform shifts do not affect
    // Bellman differences.
    const double shift = w_next[mdp.initial_state()];
    for (StateId m = 0; m < n; ++m) {
      if (classes[m] == StepClass::kMining) v[m] = w_next[m] - shift;
    }

    if (result.gain_hi - result.gain_lo < options.tol) {
      result.converged = true;
      break;
    }
  }

  result.gain = 0.5 * (result.gain_lo + result.gain_hi);
  // result.policy was captured by the final sweep's two passes (greedy
  // w.r.t. the vectors they backed up from) — no extra extraction sweep.
  return result;
}

}  // namespace mdp
