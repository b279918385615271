#include "analysis/threshold.hpp"

#include "selfish/build.hpp"
#include "support/check.hpp"

namespace analysis {

namespace {

ThresholdProbe probe_at(const selfish::AttackParams& base, double p,
                        const ThresholdOptions& options,
                        std::vector<double>* warm) {
  selfish::AttackParams params = base;
  params.p = p;
  params.validate();
  const auto model = selfish::build_model(params);
  const auto result =
      analyze(model, options.analysis, warm->empty() ? nullptr : warm);
  *warm = result.final_values;

  ThresholdProbe probe;
  probe.p = p;
  probe.errev = result.errev_of_policy;
  probe.unfair = probe.errev - p > options.unfairness_margin;
  return probe;
}

}  // namespace

ThresholdResult fairness_threshold(const selfish::AttackParams& base,
                                   const ThresholdOptions& options) {
  SM_REQUIRE(options.unfairness_margin > 0.0, "margin must be positive");
  SM_REQUIRE(options.p_tolerance > 0.0, "p tolerance must be positive");
  SM_REQUIRE(options.p_max > 0.0 && options.p_max < 1.0,
             "p_max out of (0,1): ", options.p_max);

  ThresholdResult result;
  std::vector<double> warm;

  // Fairness at p = 0 is trivial; check the top of the range first.
  ThresholdProbe top = probe_at(base, options.p_max, options, &warm);
  result.probes.push_back(top);
  if (!top.unfair) {
    result.always_fair = true;
    result.p_lo = options.p_max;
    result.p_hi = 1.0;
    result.p_threshold = options.p_max;
    return result;
  }

  double lo = 0.0, hi = options.p_max;
  while (hi - lo > options.p_tolerance) {
    const double mid = 0.5 * (lo + hi);
    // Once lo and hi are adjacent doubles no p lies strictly between them,
    // so a p_tolerance below their gap ends the search here.
    if (!(lo < mid && mid < hi)) break;
    const ThresholdProbe probe = probe_at(base, mid, options, &warm);
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
