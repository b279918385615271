#include "analysis/algorithm1.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "selfish/transitions.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

namespace analysis {

void AnalysisOptions::validate() const {
  SM_CHECK_INPUT(epsilon > 0.0 && epsilon < 1.0, "epsilon out of (0,1): ",
                 epsilon);
}

AnalysisResult analyze(const selfish::SelfishModel& model,
                       const AnalysisOptions& options) {
  options.validate();
  const support::Timer timer;
  const mdp::Mdp& m = model.mdp;

  // One kernel serves every bisection step, each seeded with the previous
  // step's values. The kernel fuses the β-reward into the backup, so no
  // per-step reward vector is materialized, and each solve stops once it
  // settles the sign of MP*_β, which is all a step needs.
  const mdp::BellmanKernel kernel(m);
  std::vector<double> values;

  AnalysisResult result;
  result.beta_lo = 0.0;
  result.beta_hi = 1.0;

  while (result.beta_hi - result.beta_lo >= options.epsilon) {
    const double beta = 0.5 * (result.beta_lo + result.beta_hi);
    mdp::MeanPayoffResult solve = kernel.value_iteration(
        beta, options.solver.mean_payoff, values.empty() ? nullptr : &values,
        options.solver.threads);
    SM_ENSURE(solve.converged, "mean-payoff solver did not converge at beta=",
              beta);
    ++result.search_iterations;
    result.solver_iterations += solve.iterations;
    values = std::move(solve.values);

    if (solve.gain_lo > 0.0) {
      // MP*_β > 0, so ERRev* > β; and σ has g_σ ≥ gain_lo > 0, so
      // ERRev(σ) > β (Theorem 3.1(2)).
      result.beta_lo = beta;
      result.policy = std::move(solve.policy);
    } else if (solve.gain_hi < 0.0) {
      result.beta_hi = beta;
      // Until a step certifies a positive gain β_lo stays 0, which every
      // strategy achieves, so the latest policy serves.
      if (result.beta_lo == 0.0) result.policy = std::move(solve.policy);
    } else {
      // A tie: the interval holds 0 at a width below the solver's tol.
      // Every strategy τ has MP_β(τ) = (g_A + g_H)·(ERRev(τ) − β) with
      // g_A + g_H ≥ r, so MP*_β ≤ gain_hi gives ERRev* ≤ β + gain_hi/r,
      // and g_σ ≥ gain_lo gives ERRev(σ) ≥ β + gain_lo/r.
      const double r = selfish::min_finalization_rate(model.params);
      const double tie_lo = beta + solve.gain_lo / r;
      const double lo = std::max(result.beta_lo, tie_lo);
      const double hi = std::min(result.beta_hi, beta + solve.gain_hi / r);
      if (!(hi - lo < options.epsilon)) {
        throw support::InvalidArgument(support::detail::concat(
            "Algorithm 1 tied at beta=", beta,
            ", which bounds ERRev* only to tol/r = ",
            options.solver.mean_payoff.tol / r,
            " (solver tol over the finalization-rate floor), not below "
            "epsilon=", options.epsilon));
      }
      // Where a certified β_lo clips the tie's lower end, the policy that
      // certified it keeps its guarantee and stays.
      if (tie_lo >= result.beta_lo || result.beta_lo == 0.0) {
        result.policy = std::move(solve.policy);
      }
      result.beta_lo = lo;
      result.beta_hi = hi;
      break;
    }
  }

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
