#include "analysis/algorithm1.hpp"

#include <cmath>
#include <utility>

#include "support/check.hpp"
#include "support/timer.hpp"

namespace analysis {

AnalysisResult analyze(const selfish::SelfishModel& model,
                       const AnalysisOptions& options,
                       const std::vector<double>* warm_start) {
  SM_REQUIRE(options.epsilon > 0.0 && options.epsilon < 1.0,
             "epsilon out of (0,1): ", options.epsilon);
  const support::Timer timer;
  const mdp::Mdp& m = model.mdp;

  // One kernel serves every bisection step. The kernel fuses the
  // β-reward into the backup, so no per-step reward vector is
  // materialized.
  const mdp::BellmanKernel kernel(m);
  const auto solve_at = [&](double beta, const std::vector<double>* seed) {
    return mdp::solve_mean_payoff(kernel, beta, options.solver, seed);
  };

  AnalysisResult result;
  result.beta_lo = 0.0;
  result.beta_hi = 1.0;

  std::vector<double> values;
  if (warm_start != nullptr) values = *warm_start;
  // Warm starts arrive from the previous threshold probe, whose
  // reachable state count can differ — the set of reachable states
  // depends on p. A foreign-sized vector cannot seed this model's solves (the kernel rejects it rather than silently
  // cold-starting), so the cross-model boundary is handled here, once
  // and explicitly: discard and start cold. Deterministic — the decision
  // is a pure function of the two state counts.
  if (!values.empty() &&
      values.size() != static_cast<std::size_t>(m.num_states())) {
    values.clear();
  }
  const std::vector<double>* seed = values.empty() ? nullptr : &values;

  while (result.beta_hi - result.beta_lo >= options.epsilon) {
    const double beta = 0.5 * (result.beta_lo + result.beta_hi);
    mdp::MeanPayoffResult solve = solve_at(beta, seed);
    SM_ENSURE(solve.converged, "mean-payoff solver did not converge at beta=",
              beta);
    ++result.search_iterations;
    result.solver_iterations += solve.iterations;
    values = std::move(solve.values);
    seed = values.empty() ? nullptr : &values;

    if (solve.gain < 0.0) {
      result.beta_hi = beta;
    } else {
      result.beta_lo = beta;
    }
  }
  result.errev_lower_bound = result.beta_lo;

  // Final solve at β_lo yields the ε-optimal strategy (Theorem 3.1(2)).
  mdp::MeanPayoffResult final_solve = solve_at(result.beta_lo, seed);
  SM_ENSURE(final_solve.converged, "final mean-payoff solve did not converge");
  result.solver_iterations += final_solve.iterations;
  result.policy = std::move(final_solve.policy);
  result.final_values = std::move(final_solve.values);

  if (options.evaluate_exact_errev) {
    result.stationary = mdp::stationary_distribution(m, result.policy);
    result.errev_of_policy = result.stationary.rates.ratio();
  } else {
    result.errev_of_policy = std::nan("");
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace analysis
