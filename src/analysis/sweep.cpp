#include "analysis/sweep.hpp"

#include <cmath>
#include <ostream>

#include "baselines/honest.hpp"
#include "baselines/single_tree.hpp"
#include "engine/engine.hpp"
#include "support/check.hpp"
#include "support/csv.hpp"

namespace analysis {

std::vector<double> linspace_grid(double lo, double hi, double step) {
  SM_REQUIRE(std::isfinite(lo), "grid lower bound is not finite: ", lo);
  SM_REQUIRE(std::isfinite(hi), "grid upper bound is not finite: ", hi);
  SM_REQUIRE(std::isfinite(step), "grid step is not finite: ", step);
  SM_REQUIRE(step > 0.0, "grid step must be positive");
  SM_REQUIRE(hi >= lo, "grid upper bound below lower bound");
  // Count the points before allocating any, so an oversized grid fails
  // without first filling memory.
  std::size_t count = 0;
  while (!(lo + step * static_cast<double>(count) > hi + 1e-12)) {
    SM_REQUIRE(count < kMaxGridPoints, "grid [", lo, ", ", hi, "] with step ",
               step, " has more than ", kMaxGridPoints, " points");
    ++count;
  }
  std::vector<double> grid(count);
  for (std::size_t i = 0; i < count; ++i) {
    grid[i] = lo + step * static_cast<double>(i);
  }
  return grid;
}

SweepResult sweep_p(const selfish::AttackParams& base,
                    const std::vector<double>& ps,
                    const AnalysisOptions& options, engine::Engine& engine) {
  std::vector<engine::AnalysisJob> jobs;
  jobs.reserve(ps.size());
  for (const double p : ps) {
    engine::AnalysisJob job;
    job.params = base;
    job.params.p = p;
    job.options = options;
    jobs.push_back(job);
  }
  const std::vector<engine::JobOutcome> outcomes = engine.run(jobs);

  SweepResult result;
  result.base = base;
  result.points.reserve(ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const engine::StoredResult& stored = outcomes[i].result;
    SweepPoint point;
    point.p = ps[i];
    point.errev = stored.beta_lo;
    point.errev_of_policy = stored.errev_of_policy;
    point.seconds = stored.seconds;
    point.num_states = static_cast<std::size_t>(stored.num_states);
    point.search_iterations = stored.search_iterations;
    point.solver_iterations = static_cast<long>(stored.solver_iterations);
    point.cached = outcomes[i].cached;
    result.points.push_back(point);
  }
  return result;
}

SweepResult sweep_p(const selfish::AttackParams& base,
                    const std::vector<double>& ps,
                    const AnalysisOptions& options) {
  engine::Engine engine{engine::EngineOptions{}};
  return sweep_p(base, ps, options, engine);
}

void write_sweep_csv(const SweepResult& sweep, std::ostream& out) {
  support::CsvWriter csv(out);
  csv.header({"p", "errev_lower_bound", "errev_of_strategy", "honest",
              "single_tree", "states", "search_steps", "solver_iterations"});
  for (const SweepPoint& point : sweep.points) {
    const double tree =
        baselines::analyze_single_tree(
            baselines::SingleTreeParams{.p = point.p,
                                        .gamma = sweep.base.gamma,
                                        .max_depth = 4,
                                        .max_width = 5})
            .errev;
    csv.row({support::format_double(point.p, 6),
             support::format_double(point.errev, 6),
             support::format_double(point.errev_of_policy, 6),
             support::format_double(baselines::honest_errev(point.p), 6),
             support::format_double(tree, 6),
             std::to_string(point.num_states),
             std::to_string(point.search_iterations),
             std::to_string(point.solver_iterations)});
  }
}

}  // namespace analysis
