#include "analysis/algorithm1.hpp"

#include <cmath>
#include <utility>

#include "support/check.hpp"
#include "support/timer.hpp"

namespace analysis {

AnalysisResult analyze(const selfish::SelfishModel& model,
                       const AnalysisOptions& options) {
  SM_REQUIRE(options.epsilon > 0.0 && options.epsilon < 1.0,
             "epsilon out of (0,1): ", options.epsilon);
  const support::Timer timer;
  const mdp::Mdp& m = model.mdp;

  // One kernel serves every bisection step, each seeded with the previous
  // step's values. The kernel fuses the β-reward into the backup, so no
  // per-step reward vector is materialized.
  const mdp::BellmanKernel kernel(m);
  std::vector<double> values;
  const auto solve_at = [&](double beta) {
    return mdp::solve_mean_payoff(kernel, beta, options.solver,
                                  values.empty() ? nullptr : &values);
  };

  AnalysisResult result;
  result.beta_lo = 0.0;
  result.beta_hi = 1.0;

  while (result.beta_hi - result.beta_lo >= options.epsilon) {
    const double beta = 0.5 * (result.beta_lo + result.beta_hi);
    mdp::MeanPayoffResult solve = solve_at(beta);
    SM_ENSURE(solve.converged, "mean-payoff solver did not converge at beta=",
              beta);
    ++result.search_iterations;
    result.solver_iterations += solve.iterations;
    values = std::move(solve.values);

    if (solve.gain < 0.0) {
      result.beta_hi = beta;
    } else {
      result.beta_lo = beta;
    }
  }
  result.errev_lower_bound = result.beta_lo;

  // Final solve at β_lo yields the ε-optimal strategy (Theorem 3.1(2)).
  mdp::MeanPayoffResult final_solve = solve_at(result.beta_lo);
  SM_ENSURE(final_solve.converged, "final mean-payoff solve did not converge");
  result.solver_iterations += final_solve.iterations;
  result.policy = std::move(final_solve.policy);

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
