#include "analysis/threshold.hpp"

#include "selfish/build.hpp"
#include "support/check.hpp"

namespace analysis {

namespace {

ThresholdProbe probe_at(const selfish::AttackParams& base, double p,
                        const ThresholdOptions& options) {
  selfish::AttackParams params = base;
  params.p = p;
  params.validate();
  const auto model = selfish::build_model(params);
  const mdp::BellmanKernel kernel(model.mdp);
  const double beta = p + options.unfairness_margin;
  const mdp::MeanPayoffResult solve = kernel.value_iteration(
      beta, options.solver.mean_payoff, nullptr, options.solver.threads);
  SM_ENSURE(solve.converged, "mean-payoff solver did not converge at beta=",
            beta);
  return {p, solve.gain_lo, solve.gain_hi, solve.gain_lo > 0.0};
}

}  // namespace

void ThresholdOptions::validate() const {
  SM_CHECK_INPUT(unfairness_margin > 0.0 && kPMax + unfairness_margin < 1.0,
                 "margin out of (0,", 1.0 - kPMax, "): ", unfairness_margin);
  SM_CHECK_INPUT(p_tolerance > 0.0, "p tolerance must be positive, got ",
                 p_tolerance);
}

ThresholdResult fairness_threshold(const selfish::AttackParams& base,
                                   const ThresholdOptions& options) {
  options.validate();
  ThresholdResult result;

  // Fairness at p = 0 is trivial; check the top of the range first.
  ThresholdProbe top = probe_at(base, ThresholdOptions::kPMax, options);
  result.probes.push_back(top);
  if (!top.unfair) {
    result.always_fair = true;
    result.p_lo = ThresholdOptions::kPMax;
    result.p_hi = 1.0;
    result.p_threshold = ThresholdOptions::kPMax;
    return result;
  }

  double lo = 0.0, hi = ThresholdOptions::kPMax;
  while (hi - lo > options.p_tolerance) {
    const double mid = 0.5 * (lo + hi);
    // Once lo and hi are adjacent doubles no p lies strictly between them,
    // so a p_tolerance below their gap ends the search here.
    if (!(lo < mid && mid < hi)) break;
    const ThresholdProbe probe = probe_at(base, mid, options);
    result.probes.push_back(probe);
    if (probe.unfair) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  result.p_lo = lo;
  result.p_hi = hi;
  result.p_threshold = 0.5 * (lo + hi);
  return result;
}

}  // namespace analysis
