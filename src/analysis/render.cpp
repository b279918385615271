#include "analysis/render.hpp"

#include <cstdio>
#include <sstream>

#include "analysis/policy_stats.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"

namespace analysis {

namespace {

/// printf into a std::string (the reports were printf-rendered before the
/// serving layer split them out; keeping the exact formats keeps the CLI
/// output stable).
template <typename... Args>
std::string format(const char* fmt, Args... args) {
  const int size = std::snprintf(nullptr, 0, fmt, args...);
  std::string out(static_cast<std::size_t>(size), '\0');
  std::snprintf(out.data(), out.size() + 1, fmt, args...);
  return out;
}

}  // namespace

std::string render_analysis_report(const selfish::AttackParams& params,
                                   const selfish::SelfishModel& model,
                                   const AnalysisResult& result,
                                   bool include_stats) {
  std::string report =
      format("model %s: %u states, %zu transitions\n",
             params.to_string().c_str(), model.mdp.num_states(),
             model.mdp.num_transitions());
  report += format(
      "ERRev* in [%.6f, %.6f]; strategy achieves %.6f "
      "(honest share: %.4f)\n",
      result.beta_lo, result.beta_hi, result.errev_of_policy, params.p);
  report += format("%d binary-search steps, %ld solver iterations, %.3f s\n",
                   result.search_iterations, result.solver_iterations,
                   result.seconds);
  if (include_stats) {
    // Only a result analysed with evaluate_exact_errev off lacks a solve.
    mdp::StationaryResult solved;
    const mdp::StationaryResult* stationary = &result.stationary;
    if (stationary->distribution.empty()) {
      solved = mdp::stationary_distribution(model.mdp, result.policy);
      stationary = &solved;
    }
    report += compute_policy_stats(model, result.policy,
                                   stationary->distribution)
                  .to_string();
  }
  return report;
}

std::string render_threshold_report(const ThresholdOptions& options,
                                    const ThresholdResult& result) {
  if (result.always_fair) {
    return format(
        "fair for all p <= %.3f (attack never beats honest mining "
        "by more than %.3f)\n",
        ThresholdOptions::kPMax, options.unfairness_margin);
  }
  return format(
      "attack becomes profitable at p ~= %.4f "
      "(bracket [%.4f, %.4f], %zu probes)\n",
      result.p_threshold, result.p_lo, result.p_hi, result.probes.size());
}

std::string render_upper_bound_report(const UpperBoundOptions& options,
                                      const UpperBoundResult& result) {
  support::Table table(
      {"l", "states", "ERRev lower bound", "in-model upper bound"});
  for (const LPoint& point : result.points) {
    table.add_row({std::to_string(point.l), std::to_string(point.num_states),
                   support::format_double(point.errev_lb, 6),
                   support::format_double(point.beta_hi, 6)});
  }
  std::ostringstream out;
  table.print(out);
  out << format("certified ERRev*(l=%d) <= %.6f\n", options.l_max,
                result.certified_at_lmax);
  out << format("heuristic l->inf estimate: %.6f (tail %.2e, %s)\n",
                result.extrapolated_limit, result.extrapolation_tail,
                result.geometric ? "geometric fit" : "fallback");
  return out.str();
}

}  // namespace analysis
