// Algorithm 1 of the paper: the fully automated formal analysis.
//
// Binary search over β ∈ [0, 1]: each step asks for the sign of the
// optimal mean payoff MP*_β of the reward r_β = (1−β)·adversary −
// β·honest. By Theorem 3.1, MP*_β is decreasing in β with its root exactly
// at β* = ERRev*, so the sign alone moves one end of [β_lo, β_hi]:
//
//  - Stop rule: each step's solve stops as soon as its certified interval
//    [gain_lo, gain_hi] excludes 0 (mdp/bellman_kernel.hpp).
//  - gain_lo > 0 sets β_lo = β; gain_hi < 0 sets β_hi = β.
//  - Tie rule: an interval that still holds 0 at a width below the
//    solver's tol ends the search with the certified bracket
//    [β + gain_lo/r, β + gain_hi/r], clipped to the current one, where r
//    is selfish::min_finalization_rate. analyze throws rather than return
//    such a bracket when it is not narrower than ε.
//  - The strategy σ: the greedy policy captured by the certifying sweep of
//    the last step that set β_lo. It has g_σ ≥ gain_lo > 0, so ERRev(σ) >
//    β_lo (Theorem 3.1(2)), and no separate final solve is needed. At a
//    tie σ is the tie step's policy, whose ERRev is at least
//    β + gain_lo/r. While no step has certified a positive gain (ERRev* <
//    ε, e.g. p = 0), β_lo stays 0 and σ is the last step's policy: every
//    strategy has ERRev ≥ 0.
//
// So ERRev* and ERRev(σ) both lie in the returned [β_lo, β_hi], narrower
// than ε. On top of the paper's algorithm we (a) warm-start the value
// vector across binary-search steps (the solves differ only in β, so
// values barely move), (b) evaluate the *exact* ERRev of the returned
// strategy via the stationary counter rates g_A/(g_A+g_H), keeping that
// one solve in the result for the report's strategy statistics, and (c)
// run every solve on one mdp::BellmanKernel per analysis — a view over
// the model's arrays with the β-reward fused into the backup, whose sweeps
// fan out over AnalysisOptions::solver.threads workers with bit-identical
// results at any thread count.
#pragma once

#include "mdp/markov_chain.hpp"
#include "mdp/solve.hpp"
#include "selfish/build.hpp"

namespace analysis {

struct AnalysisOptions {
  /// Binary-search precision ε on β (and hence on ERRev).
  double epsilon = 1e-3;
  /// Mean-payoff solver configuration for each binary-search step.
  mdp::SolveOptions solver;
  /// Also evaluate the returned strategy (one stationary solve, kept in
  /// AnalysisResult::stationary; disable for pure-runtime benches).
  bool evaluate_exact_errev = true;
};

struct AnalysisResult {
  double errev_lower_bound = 0.0;  ///< β_lo: certified ε-tight lower bound.
  double beta_lo = 0.0;
  double beta_hi = 1.0;
  /// Exact ERRev(σ) of `policy` (g_A/(g_A+g_H)); NaN when not evaluated.
  double errev_of_policy = 0.0;
  mdp::Policy policy;              ///< ε-optimal selfish-mining strategy.
  /// The chain `policy` induces, solved once: errev_of_policy is its
  /// rates.ratio(). Empty distribution when not evaluated.
  mdp::StationaryResult stationary;
  int search_iterations = 0;       ///< Binary-search steps = solves run.
  long solver_iterations = 0;      ///< Total inner solver iterations.
  double seconds = 0.0;            ///< Wall-clock time of the analysis.
};

/// Runs Algorithm 1 on a built model. Throws support::InvalidArgument when
/// epsilon is outside (0, 1) or a tie cannot certify a bracket narrower
/// than epsilon.
AnalysisResult analyze(const selfish::SelfishModel& model,
                       const AnalysisOptions& options = {});

}  // namespace analysis
