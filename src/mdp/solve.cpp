#include "mdp/solve.hpp"

#include "support/check.hpp"

namespace mdp {

SolverMethod parse_solver_method(const std::string& name) {
  if (name == "vi") return SolverMethod::kValueIteration;
  if (name == "gs" || name == "vi-gs") return SolverMethod::kGaussSeidel;
  throw support::InvalidArgument("unknown solver method: " + name +
                                 " (expected vi | gs)");
}

std::string to_string(SolverMethod method) {
  switch (method) {
    case SolverMethod::kValueIteration: return "vi";
    case SolverMethod::kGaussSeidel: return "gs";
  }
  return "?";
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
  }
  throw support::InternalError("unhandled solver method");
}

}  // namespace mdp
