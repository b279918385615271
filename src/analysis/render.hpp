// Text renderings of analysis artifacts, shared between the CLI
// subcommands and the analysis service (src/serve/).
//
// The serving layer's contract is that a query response is byte-identical
// to the equivalent direct CLI invocation; both fronts therefore render
// through these functions — the identity holds by construction, and the
// tests/CI only pin that neither side bypasses them.
#pragma once

#include <string>

#include "analysis/algorithm1.hpp"
#include "analysis/threshold.hpp"
#include "analysis/upper_bound.hpp"
#include "selfish/build.hpp"

namespace analysis {

/// The `selfish-mining analyze` report: model summary, certified ERRev
/// bracket, search/solve counters, and (optionally) the strategy's
/// structural statistics from `result.stationary` (solved here only when
/// evaluate_exact_errev was off). The third line ends with the analysis
/// wall-clock
/// — the one volatile token; consumers that byte-compare across runs strip
/// it (see the serve-smoke CI job).
std::string render_analysis_report(const selfish::AttackParams& params,
                                   const selfish::SelfishModel& model,
                                   const AnalysisResult& result,
                                   bool include_stats);

/// The `selfish-mining threshold` report (fully deterministic).
std::string render_threshold_report(const ThresholdOptions& options,
                                    const ThresholdResult& result);

/// The `selfish-mining upper-bound` report (fully deterministic).
std::string render_upper_bound_report(const UpperBoundOptions& options,
                                      const UpperBoundResult& result);

}  // namespace analysis
