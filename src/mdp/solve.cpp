#include "mdp/solve.hpp"

#include "mdp/dense_solver.hpp"
#include "support/check.hpp"

namespace mdp {

SolverMethod parse_solver_method(const std::string& name) {
  if (name == "vi") return SolverMethod::kValueIteration;
  if (name == "gs" || name == "vi-gs") return SolverMethod::kGaussSeidel;
  if (name == "pi") return SolverMethod::kPolicyIteration;
  if (name == "dense") return SolverMethod::kDensePolicyIteration;
  throw support::InvalidArgument("unknown solver method: " + name +
                                 " (expected vi | gs | pi | dense)");
}

std::string to_string(SolverMethod method) {
  switch (method) {
    case SolverMethod::kValueIteration: return "vi";
    case SolverMethod::kGaussSeidel: return "gs";
    case SolverMethod::kPolicyIteration: return "pi";
    case SolverMethod::kDensePolicyIteration: return "dense";
  }
  return "?";
}

MeanPayoffResult solve_mean_payoff(const Mdp& mdp,
                                   const std::vector<double>& action_reward,
                                   const SolveOptions& options,
                                   const std::vector<double>* warm_start) {
  switch (options.method) {
    case SolverMethod::kValueIteration:
      return value_iteration(mdp, action_reward, options.mean_payoff,
                             warm_start);
    case SolverMethod::kGaussSeidel:
      return gauss_seidel_value_iteration(mdp, action_reward,
                                          options.mean_payoff, warm_start);
    case SolverMethod::kPolicyIteration: {
      PolicyIterationOptions pi_options;
      pi_options.evaluation = options.mean_payoff;
      const PolicyIterationResult pi =
          policy_iteration(mdp, action_reward, pi_options);
      MeanPayoffResult result;
      result.gain = pi.gain;
      result.gain_lo = pi.gain_lo;
      result.gain_hi = pi.gain_hi;
      result.policy = pi.policy;
      result.iterations = pi.rounds;
      result.converged = pi.converged;
      return result;
    }
    case SolverMethod::kDensePolicyIteration: {
      const DensePolicyIterationResult dp = dense_policy_iteration(
          mdp, action_reward, /*improve_tol=*/options.mean_payoff.tol * 1e-2);
      MeanPayoffResult result;
      result.gain = dp.gain;
      result.gain_lo = dp.gain;
      result.gain_hi = dp.gain;
      result.policy = dp.policy;
      result.iterations = dp.rounds;
      result.converged = dp.converged;
      return result;
    }
  }
  throw support::InternalError("unhandled solver method");
}

MeanPayoffResult solve_mean_payoff(const BellmanKernel& kernel, double beta,
                                   const SolveOptions& options,
                                   const std::vector<double>* warm_start) {
  switch (options.method) {
    case SolverMethod::kValueIteration:
      return kernel.value_iteration(beta, options.mean_payoff, warm_start,
                                    options.threads);
    case SolverMethod::kGaussSeidel:
      return kernel.gauss_seidel(beta, options.mean_payoff, warm_start,
                                 options.threads);
    case SolverMethod::kPolicyIteration:
    case SolverMethod::kDensePolicyIteration: {
      // No kernel implementation: materialize the reward vector and take
      // the reference path (identical numbers — the fused reward is
      // beta_reward).
      std::vector<double> rewards;
      kernel.mdp().beta_rewards_into(beta, rewards);
      return solve_mean_payoff(kernel.mdp(), rewards, options, warm_start);
    }
  }
  throw support::InternalError("unhandled solver method");
}

}  // namespace mdp
