// Fairness thresholds: how much adversarial resource can a chain tolerate
// before optimal selfish mining becomes profitable?
//
// A blockchain is *fair* at resource p when the optimal attack earns no
// more than the honest share: ERRev*(p) ≤ p (§1 of the paper frames
// selfish mining as an attack on exactly this property; its takeaways are
// phrased as thresholds, e.g. "d=f=1 only starts to pay off for p > 0.25").
// This module locates the profitability frontier
//
//   p* = inf { p : ERRev*(p) − p > margin }
//
// by bisection over p. By Theorem 3.1, MP*_β decreases in β with its root
// at ERRev*, so a probe's question "ERRev*(p) > p + margin?" is the sign
// of one mean-payoff solve at β = p + margin (a tie counts as fair). The
// excess ERRev*(p) − p is empirically monotone in p for these models (see
// bench_figure2); bisection assumes that monotonicity and the result
// records every probe so the assumption can be audited.
#pragma once

#include <vector>

#include "mdp/solve.hpp"
#include "selfish/params.hpp"

namespace analysis {

struct ThresholdOptions {
  /// Top of the search range (0.5 is the trivial limit of longest-chain rules).
  static constexpr double kPMax = 0.45;
  /// Excess revenue over the honest share that counts as "unfair".
  double unfairness_margin = 0.005;
  /// Width of the final p bracket.
  double p_tolerance = 0.005;
  mdp::SolveOptions solver;  ///< The mean-payoff solve of each probe.
  /// Throws support::InvalidArgument unless 0 < margin < 1 − kPMax (so
  /// every β = p + margin lies in (0, 1)) and the tolerance is positive.
  void validate() const;
};

struct ThresholdProbe {
  double p = 0.0;
  double gain_lo = 0.0;  ///< Certified bounds on MP*_β, β = p + margin.
  double gain_hi = 0.0;
  bool unfair = false;  ///< gain_lo > 0: ERRev*(p) − p > margin.
};

struct ThresholdResult {
  /// Midpoint of the final bracket; meaningless when always_fair.
  double p_threshold = 0.0;
  double p_lo = 0.0;  ///< Largest probed p still fair.
  double p_hi = 0.0;  ///< Smallest probed p already unfair.
  /// True when even kPMax is fair (e.g. d=f=1 with γ < 0.5).
  bool always_fair = false;
  std::vector<ThresholdProbe> probes;  ///< Every probe, in order.
};

/// Locates the profitability frontier for the configuration in `base`
/// (its p field is ignored).
ThresholdResult fairness_threshold(const selfish::AttackParams& base,
                                   const ThresholdOptions& options = {});

}  // namespace analysis
