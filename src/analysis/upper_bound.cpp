#include "analysis/upper_bound.hpp"

#include "selfish/build.hpp"
#include "support/check.hpp"

namespace analysis {

void UpperBoundOptions::validate() const {
  SM_REQUIRE(l_min >= 1, "l_min must be at least 1");
  SM_REQUIRE(l_max >= l_min + 1, "need at least two l values to extrapolate");
  SM_REQUIRE(l_max <= selfish::kMaxForkLength,
             "l_max exceeds the representable fork length");
}

UpperBoundResult bound_errev_in_l(const selfish::AttackParams& base,
                                  const UpperBoundOptions& options) {
  options.validate();

  UpperBoundResult result;
  for (int l = options.l_min; l <= options.l_max; ++l) {
    selfish::AttackParams params = base;
    params.l = l;
    params.validate();
    const auto model = selfish::build_model(params);
    const auto analysis = analyze(model, options.analysis);
    result.points.push_back(LPoint{l, analysis.errev_lower_bound,
                                   analysis.beta_hi,
                                   model.mdp.num_states()});
  }
  result.certified_at_lmax = result.points.back().beta_hi;

  // Geometric-tail extrapolation over the certified lower bounds.
  const std::size_t n = result.points.size();
  const double last = result.points[n - 1].errev_lb;
  const double delta_last = last - result.points[n - 2].errev_lb;
  double ratio = 0.0;
  if (n >= 3) {
    const double delta_prev =
        result.points[n - 2].errev_lb - result.points[n - 3].errev_lb;
    if (delta_prev > 0.0) ratio = delta_last / delta_prev;
  }
  if (delta_last > 0.0 && ratio > 0.0 && ratio < 1.0) {
    result.geometric = true;
    result.extrapolation_tail = delta_last * ratio / (1.0 - ratio);
  } else {
    // Degenerate or already saturated: fall back to one more increment.
    result.extrapolation_tail = delta_last > 0.0 ? delta_last : 0.0;
  }
  result.extrapolated_limit = last + result.extrapolation_tail;
  return result;
}

}  // namespace analysis
