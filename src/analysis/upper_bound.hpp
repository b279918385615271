// Upper bounds on the optimal expected relative revenue (paper future
// work #1).
//
// Two bounds of different strength are reported:
//
//  * Certified, within-model: Algorithm 1's bracket gives
//    ERRev*(model) ≤ β_hi — an upper bound over all strategies *expressible
//    in the MDP* (bounded forks of length ≤ l, disjoint forks).
//  * Truncation-limit estimate: ERRev*(l) is non-decreasing in the fork cap
//    l and empirically saturates geometrically (see bench_ablation_l). We
//    compute the sequence for increasing l and report a geometric-tail
//    extrapolation of its limit. This estimate is heuristic — it assumes
//    the increments keep shrinking at the observed ratio — and is labeled
//    as such; the per-l values themselves are certified.
#pragma once

#include <vector>

#include "analysis/algorithm1.hpp"
#include "selfish/params.hpp"

namespace analysis {

struct UpperBoundOptions {
  int l_min = 2;
  int l_max = 5;
  AnalysisOptions analysis;  ///< Options for each per-l run of Algorithm 1.
  /// Throws support::InvalidArgument unless 1 ≤ l_min < l_max ≤
  /// selfish::kMaxForkLength (the extrapolation needs two l values) and
  /// `analysis` is valid.
  void validate() const;
};

struct LPoint {
  int l = 0;
  double errev_lb = 0.0;  ///< Certified lower bound β_lo at this l.
  double beta_hi = 0.0;   ///< Certified within-model upper bound at this l.
  std::size_t num_states = 0;
};

struct UpperBoundResult {
  std::vector<LPoint> points;       ///< One entry per l in [l_min, l_max].
  double certified_at_lmax = 0.0;   ///< β_hi of the largest model.
  double extrapolated_limit = 0.0;  ///< Heuristic l→∞ estimate.
  double extrapolation_tail = 0.0;  ///< Estimated mass beyond l_max.
  bool geometric = false;  ///< Whether the increments admitted a ratio < 1.
};

/// Runs Algorithm 1 for l = l_min … l_max (γ, d, f, p from `base`; its l is
/// ignored) and assembles the bounds described above.
UpperBoundResult bound_errev_in_l(const selfish::AttackParams& base,
                                  const UpperBoundOptions& options = {});

}  // namespace analysis
