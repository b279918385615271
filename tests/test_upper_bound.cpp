// Upper bounds on ERRev*: certified within-model brackets and the fork-cap
// extrapolation.
#include <gtest/gtest.h>

#include "analysis/upper_bound.hpp"
#include "support/check.hpp"

namespace {

TEST(UpperBound, PointsAreMonotoneInL) {
  const selfish::AttackParams base{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  analysis::UpperBoundOptions options;
  options.l_min = 1;
  options.l_max = 5;
  options.analysis.epsilon = 1e-4;
  const auto result = analysis::bound_errev_in_l(base, options);
  ASSERT_EQ(result.points.size(), 5u);
  for (std::size_t i = 1; i < result.points.size(); ++i) {
    EXPECT_GE(result.points[i].errev_lb,
              result.points[i - 1].errev_lb - 1e-9);
    EXPECT_GT(result.points[i].num_states, result.points[i - 1].num_states);
  }
}

TEST(UpperBound, BracketsAreConsistent) {
  const selfish::AttackParams base{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  analysis::UpperBoundOptions options;
  options.l_min = 2;
  options.l_max = 5;
  options.analysis.epsilon = 1e-4;
  const auto result = analysis::bound_errev_in_l(base, options);
  for (const auto& point : result.points) {
    EXPECT_LT(point.errev_lb, point.beta_hi);
    EXPECT_LE(point.beta_hi - point.errev_lb, 2 * options.analysis.epsilon);
  }
  EXPECT_DOUBLE_EQ(result.certified_at_lmax, result.points.back().beta_hi);
}

TEST(UpperBound, ExtrapolationLiesAboveLastPoint) {
  const selfish::AttackParams base{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 4};
  analysis::UpperBoundOptions options;
  options.l_min = 2;
  options.l_max = 5;
  options.analysis.epsilon = 1e-4;
  const auto result = analysis::bound_errev_in_l(base, options);
  EXPECT_GE(result.extrapolated_limit, result.points.back().errev_lb);
  // The l-ablation shows geometric saturation; the tail must be small.
  EXPECT_LT(result.extrapolation_tail, 0.05);
  EXPECT_TRUE(result.geometric);
}

TEST(UpperBound, ExtrapolatedLimitBoundsLargerL) {
  // The heuristic limit must dominate a model with a deeper fork cap.
  const selfish::AttackParams base{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  analysis::UpperBoundOptions options;
  options.l_min = 2;
  options.l_max = 5;
  options.analysis.epsilon = 1e-4;
  const auto result = analysis::bound_errev_in_l(base, options);

  selfish::AttackParams deeper = base;
  deeper.l = 7;
  const auto model = selfish::build_model(deeper);
  analysis::AnalysisOptions deep_options;
  deep_options.epsilon = 1e-4;
  const auto deep = analysis::analyze(model, deep_options);
  EXPECT_GE(result.extrapolated_limit + 1e-3, deep.errev_lower_bound);
}

TEST(UpperBound, RejectsDegenerateRanges) {
  const selfish::AttackParams base{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  analysis::UpperBoundOptions options;
  options.l_min = 0;
  EXPECT_THROW(analysis::bound_errev_in_l(base, options),
               support::InvalidArgument);
  options.l_min = 3;
  options.l_max = 3;
  EXPECT_THROW(analysis::bound_errev_in_l(base, options),
               support::InvalidArgument);
}

TEST(UpperBound, OneValidatorRefusesEveryBadRange) {
  // UpperBoundOptions::validate is the one range check that both
  // bound_errev_in_l and engine::make_upper_bound_job call.
  const selfish::AttackParams base{.p = 0.3, .gamma = 0.5, .d = 1, .f = 1, .l = 4};
  analysis::UpperBoundOptions options;
  EXPECT_NO_THROW(options.validate());
  for (const auto& [l_min, l_max] :
       {std::pair{0, 3}, {3, 3}, {4, 2}, {2, selfish::kMaxForkLength + 1}}) {
    options.l_min = l_min;
    options.l_max = l_max;
    EXPECT_THROW(options.validate(), support::InvalidArgument)
        << l_min << ".." << l_max;
    EXPECT_THROW(analysis::bound_errev_in_l(base, options),
                 support::InvalidArgument)
        << l_min << ".." << l_max;
  }
  options.l_min = selfish::kMaxForkLength - 1;
  options.l_max = selfish::kMaxForkLength;
  EXPECT_NO_THROW(options.validate());
}

}  // namespace
