#include "mdp/policy_iteration.hpp"

#include "mdp/policy_evaluation.hpp"
#include "support/check.hpp"

namespace mdp {

PolicyIterationResult policy_iteration(const Mdp& mdp,
                                       const std::vector<double>& action_reward,
                                       const PolicyIterationOptions& options,
                                       const Policy* initial_policy) {
  SM_REQUIRE(action_reward.size() == mdp.num_actions(),
             "reward vector size mismatch");
  const StateId n = mdp.num_states();

  PolicyIterationResult result;
  Policy& policy = result.policy;
  if (initial_policy != nullptr) {
    validate_policy(mdp, *initial_policy);
    policy = *initial_policy;
  } else {
    policy.resize(n);
    for (StateId s = 0; s < n; ++s) policy[s] = mdp.action_begin(s);
  }

  std::vector<double> bias;  // reused as warm start across rounds
  for (int round = 1; round <= options.max_rounds; ++round) {
    result.rounds = round;
    const PolicyEvaluation eval = evaluate_policy_gain(
        mdp, policy, action_reward, options.evaluation,
        bias.empty() ? nullptr : &bias);
    SM_ENSURE(eval.converged, "policy evaluation did not converge in round ",
              round);
    bias = eval.bias;
    result.gain = eval.gain;
    result.gain_lo = eval.gain_lo;
    result.gain_hi = eval.gain_hi;

    bool changed = false;
    for (StateId s = 0; s < n; ++s) {
      const ActionId incumbent = policy[s];
      double incumbent_q = action_reward[incumbent];
      for (std::uint32_t i = mdp.transition_begin(incumbent);
           i < mdp.transition_end(incumbent); ++i) {
        incumbent_q += mdp.prob(i) * bias[mdp.target(i)];
      }
      double best_q = incumbent_q;
      ActionId best_a = incumbent;
      for (ActionId a = mdp.action_begin(s); a < mdp.action_end(s); ++a) {
        if (a == incumbent) continue;
        double q = action_reward[a];
        for (std::uint32_t i = mdp.transition_begin(a);
             i < mdp.transition_end(a); ++i) {
          q += mdp.prob(i) * bias[mdp.target(i)];
        }
        if (q > best_q + options.improve_tol) {
          best_q = q;
          best_a = a;
        }
      }
      if (best_a != incumbent) {
        policy[s] = best_a;
        changed = true;
      }
    }
    if (!changed) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace mdp
