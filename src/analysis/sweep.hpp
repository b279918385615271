// Parameter-sweep drivers producing the paper's experiment series.
//
// A sweep runs Algorithm 1 for a list of adversary resources p (Figure 2's
// x-axis) for one attack configuration. Each point is its own job, solved
// cold — the same computation as `analyze` at that p. Sweeps execute
// through the experiment engine (engine::Engine), which fans the points
// out across threads and serves previously computed points from its
// content-addressed store.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "analysis/algorithm1.hpp"
#include "selfish/params.hpp"

namespace engine {
class Engine;
}

namespace analysis {

struct SweepPoint {
  double p = 0.0;
  double errev = 0.0;            ///< Certified ε-tight lower bound (β_lo).
  double errev_of_policy = 0.0;  ///< Exact ERRev of the computed strategy.
  double seconds = 0.0;          ///< Solve wall-clock (cache hits replay
                                 ///< the original computation's time).
  std::size_t num_states = 0;
  int search_iterations = 0;     ///< Binary-search steps of Algorithm 1.
  long solver_iterations = 0;    ///< Total inner solver iterations.
  bool cached = false;           ///< Served from the engine's store.
};

struct SweepResult {
  selfish::AttackParams base;    ///< γ, d, f, l of the series (p varies).
  std::vector<SweepPoint> points;
};

/// Most points a grid may have: the p values in [0, 1] that the sweep
/// CSV's 6-decimal column can tell apart.
inline constexpr std::size_t kMaxGridPoints = 1'000'001;

/// Uniform grid lo, lo+step, …, ≤ hi (inclusive within 1e-12 slack).
/// Throws support::InvalidArgument, naming the bad value, when lo, hi or
/// step is not finite, and, before allocating, when the grid would have
/// more than kMaxGridPoints points.
std::vector<double> linspace_grid(double lo, double hi, double step);

/// Runs Algorithm 1 for each p in `ps` with the remaining parameters taken
/// from `base` (its p field is ignored) on `engine` — parallel across
/// points, cached and resumable when the engine has a cache directory.
SweepResult sweep_p(const selfish::AttackParams& base,
                    const std::vector<double>& ps,
                    const AnalysisOptions& options, engine::Engine& engine);

/// Convenience: sweeps on a throwaway single-threaded, store-less engine.
SweepResult sweep_p(const selfish::AttackParams& base,
                    const std::vector<double>& ps,
                    const AnalysisOptions& options = {});

/// CSV rendering of a sweep (the `selfish-mining sweep` output): one row
/// per grid point with the honest and single-tree baselines alongside.
/// Deliberately contains no wall-clock columns — for a fixed grid and
/// options the bytes are identical across reruns, resumptions, and thread
/// counts (the determinism contract the engine tests pin).
void write_sweep_csv(const SweepResult& sweep, std::ostream& out);

}  // namespace analysis
