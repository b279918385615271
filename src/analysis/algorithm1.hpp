// Algorithm 1 of the paper: the fully automated formal analysis.
//
// Binary search over β ∈ [0, 1]: each step solves the mean-payoff MDP for
// the reward r_β = (1−β)·adversary − β·honest. By Theorem 3.1, MP*_β is
// monotonically decreasing in β with root exactly at β* = ERRev*, so after
// the search narrows [β_lo, β_hi] below ε,
//
//   ERRev = β_lo ∈ [ERRev* − ε, ERRev*]
//
// and the optimal strategy for r_{β_lo} achieves ERRev(σ) within the same
// band. On top of the paper's algorithm we (a) warm-start the value vector
// across binary-search steps (the solves differ only in β, so values barely
// move), (b) evaluate the *exact* ERRev of the returned strategy via
// the stationary counter rates g_A/(g_A+g_H), keeping that one solve in
// the result for the report's strategy statistics, and (c) run every
// solve on one mdp::BellmanKernel per analysis — a view over the model's
// arrays with the β-reward fused into the backup, whose sweeps fan out over
// AnalysisOptions::solver.threads workers with bit-identical results at
// any thread count.
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
  int search_iterations = 0;       ///< Binary-search steps performed.
  long solver_iterations = 0;      ///< Total inner solver iterations.
  double seconds = 0.0;            ///< Wall-clock time of the analysis.
};

/// Runs Algorithm 1 on a built model.
AnalysisResult analyze(const selfish::SelfishModel& model,
                       const AnalysisOptions& options = {});

}  // namespace analysis
