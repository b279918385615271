// Sweep drivers: grids, one point per resource, monotonicity across p.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

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

TEST(Grid, RejectsNonFiniteBoundsAndStepNamingTheValue) {
  // A NaN or infinite grid used to fail late and misleadingly: an
  // infinite step built the grid {NaN}, a NaN bound read as "upper bound
  // below lower bound", and an infinite upper bound counted a million
  // points first. Each must fail up front, naming the bad value.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const auto message_of = [](double lo, double hi, double step) {
    try {
      analysis::linspace_grid(lo, hi, step);
    } catch (const support::InvalidArgument& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  };
  EXPECT_NE(message_of(0.1, 0.1, kInf).find("step is not finite: inf"),
            std::string::npos);
  EXPECT_NE(message_of(0.1, 0.1, kNaN).find("step is not finite: nan"),
            std::string::npos);
  EXPECT_NE(message_of(kNaN, 0.3, 0.05).find("lower bound is not finite"),
            std::string::npos);
  EXPECT_NE(message_of(-kInf, 0.3, 0.05).find("lower bound is not finite"),
            std::string::npos);
  EXPECT_NE(message_of(0.0, kInf, 0.05).find("upper bound is not finite: inf"),
            std::string::npos);
  EXPECT_NE(message_of(0.0, kNaN, 0.05).find("upper bound is not finite"),
            std::string::npos);
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

TEST(Sweep, GridReachingFullResourceWritesEveryRow) {
  // At p = 1 the single-tree baseline's round never ends, so its CSV cell
  // is nan while every other column of that row is written as usual.
  selfish::AttackParams base{.p = 0.0, .gamma = 0.5, .d = 1, .f = 1, .l = 4};
  analysis::AnalysisOptions options;
  options.epsilon = 1e-3;
  std::ostringstream out;
  analysis::write_sweep_csv(analysis::sweep_p(base, {0.0, 0.5, 1.0}, options),
                            out);
  std::istringstream lines(out.str());
  std::string header, row;
  std::vector<std::string> rows;
  ASSERT_TRUE(std::getline(lines, header));
  while (std::getline(lines, row)) rows.push_back(row);
  ASSERT_EQ(rows.size(), 3u);
  const auto cell = [&](const std::string& line, std::size_t column) {
    std::istringstream cells(line);
    std::string value;
    for (std::size_t c = 0; c <= column; ++c) std::getline(cells, value, ',');
    return value;
  };
  ASSERT_EQ(cell(header, 4), "single_tree");
  EXPECT_NE(cell(rows[0], 4), "nan");
  EXPECT_NE(cell(rows[1], 4), "nan");
  EXPECT_EQ(cell(rows[2], 4), "nan");
  EXPECT_EQ(cell(rows[2], 0), "1");
  EXPECT_EQ(cell(rows[2], 3), "1");  // honest share at p = 1
}

}  // namespace
