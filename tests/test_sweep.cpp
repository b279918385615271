// Sweep drivers: grids, warm-start chaining, monotonicity across p.
#include <gtest/gtest.h>

#include "analysis/sweep.hpp"
#include "support/check.hpp"

namespace {

TEST(Grid, LinspaceInclusive) {
  const auto grid = analysis::linspace_grid(0.0, 0.3, 0.1);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_DOUBLE_EQ(grid[0], 0.0);
  EXPECT_NEAR(grid[3], 0.3, 1e-12);
}

TEST(Grid, SinglePoint) {
  const auto grid = analysis::linspace_grid(0.25, 0.25, 0.05);
  ASSERT_EQ(grid.size(), 1u);
  EXPECT_DOUBLE_EQ(grid[0], 0.25);
}

TEST(Grid, RejectsBadArguments) {
  EXPECT_THROW(analysis::linspace_grid(0.0, 1.0, 0.0),
               support::InvalidArgument);
  EXPECT_THROW(analysis::linspace_grid(1.0, 0.0, 0.1),
               support::InvalidArgument);
}

TEST(Grid, SizeCappedAtCsvResolution) {
  // [0, 1] at the CSV's 6-decimal resolution is the largest grid; one
  // point more, or a step too small to ever reach hi, is refused before
  // the grid is allocated instead of exhausting memory.
  EXPECT_EQ(analysis::linspace_grid(0.0, 1.0, 1e-6).size(),
            analysis::kMaxGridPoints);
  EXPECT_THROW(analysis::linspace_grid(0.0, 1.000001, 1e-6),
               support::InvalidArgument);
  EXPECT_THROW(analysis::linspace_grid(0.0, 1.0, 1e-300),
               support::InvalidArgument);
  EXPECT_THROW(analysis::linspace_grid(0.5, 0.6, 1e-300),
               support::InvalidArgument);
}

TEST(Sweep, ProducesOnePointPerResource) {
  selfish::AttackParams base{.p = 0.0, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  analysis::AnalysisOptions options;
  options.epsilon = 1e-3;
  const auto ps = std::vector<double>{0.1, 0.2, 0.3};
  const auto result = analysis::sweep_p(base, ps, options);
  ASSERT_EQ(result.points.size(), 3u);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.points[i].p, ps[i]);
    EXPECT_GT(result.points[i].num_states, 0u);
    EXPECT_GT(result.points[i].seconds, 0.0);
  }
}

TEST(Sweep, ERRevMonotoneInP) {
  // More resources can only help the optimal adversary.
  selfish::AttackParams base{.p = 0.0, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  analysis::AnalysisOptions options;
  options.epsilon = 1e-4;
  const auto result =
      analysis::sweep_p(base, {0.05, 0.15, 0.25, 0.35}, options);
  for (std::size_t i = 1; i < result.points.size(); ++i) {
    EXPECT_GT(result.points[i].errev_of_policy,
              result.points[i - 1].errev_of_policy);
  }
}

TEST(Sweep, OptimalDominatesHonest) {
  // The optimal strategy can always fall back to honest-like behavior, so
  // ERRev* ≥ p (up to ε).
  selfish::AttackParams base{.p = 0.0, .gamma = 0.25, .d = 2, .f = 1, .l = 4};
  analysis::AnalysisOptions options;
  options.epsilon = 1e-4;
  const auto result = analysis::sweep_p(base, {0.1, 0.2, 0.3}, options);
  for (const auto& point : result.points) {
    EXPECT_GE(point.errev_of_policy, point.p - 1e-4) << "p=" << point.p;
  }
}

TEST(Sweep, ERRevMonotoneInGamma) {
  // A friendlier broadcast network can only help.
  analysis::AnalysisOptions options;
  options.epsilon = 1e-4;
  double previous = -1.0;
  for (const double gamma : {0.0, 0.5, 1.0}) {
    selfish::AttackParams base{.p = 0.0, .gamma = gamma, .d = 2, .f = 1, .l = 4};
    const auto result = analysis::sweep_p(base, {0.3}, options);
    EXPECT_GE(result.points[0].errev_of_policy, previous - 1e-6)
        << "gamma=" << gamma;
    previous = result.points[0].errev_of_policy;
  }
}

}  // namespace
