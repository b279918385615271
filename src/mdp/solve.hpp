// The solver menu of Algorithm 1: every mean-payoff solve runs on one
// mdp::BellmanKernel, as synchronous relative value iteration (`vi`) or
// as Gauss–Seidel sweeps with synchronous certification (`gs`). Both
// return an Odoni-certified gain interval and stop as soon as it settles
// the sign of the optimal gain: it excludes 0, or it still holds 0 at a
// width below MeanPayoffOptions::tol (a tie). The returned policy's own
// gain is at least gain_lo; analysis/algorithm1.hpp describes how
// Algorithm 1 turns signs, ties and policies into its bracket and
// strategy. The reference loops in
// value_iteration.hpp and the exact dense solver (dense_solver.hpp) are
// test oracles; no method name selects them.
#pragma once

#include <cstdint>
#include <string>

#include "mdp/bellman_kernel.hpp"
#include "mdp/value_iteration.hpp"

namespace mdp {

enum class SolverMethod {
  kValueIteration,  ///< Relative VI with aperiodicity transform.
  kGaussSeidel,     ///< In-place VI with synchronous certification.
};

/// Parses "vi" | "gs" (and the alias "vi-gs"); throws otherwise.
SolverMethod parse_solver_method(const std::string& name);
std::string to_string(SolverMethod method);

/// The kernel's one gather path, the fused scalar loop. Nothing reads
/// this: it survives only because perfbench/src/common.cpp:179
/// (pinned_analysis_options) assigns `tuning.gather = GatherMode::kScalar`,
/// and goes when that line does.
enum class GatherMode : std::uint8_t { kScalar = 0 };

/// Holder for GatherMode on SolveOptions; see GatherMode.
struct KernelTuning {
  GatherMode gather = GatherMode::kScalar;
};

struct SolveOptions {
  SolverMethod method = SolverMethod::kValueIteration;
  MeanPayoffOptions mean_payoff;  ///< Tolerances of the kernel sweeps.
  /// Worker threads for the kernel's synchronous Bellman sweeps (0 = all
  /// hardware threads). Results are bit-identical at any thread count
  /// (test_mdp_kernel), so this is pure speed — the engine's job keys
  /// deliberately exclude it.
  int threads = 1;
  KernelTuning tuning;  ///< Read by nothing; see GatherMode.
};

/// Certifies the sign of the optimal mean payoff of the fused reward r_β
/// on the kernel (see the stop rule above), fanning sweeps over
/// `options.threads` workers. `warm_start` (value vector from a previous
/// related solve) seeds the sweeps. After k sweeps the result equals
/// mdp::value_iteration / mdp::gauss_seidel_value_iteration on
/// Mdp::beta_rewards(β) capped at k iterations, in every field but
/// `converged`, at any thread count (test_mdp_kernel).
MeanPayoffResult solve_mean_payoff(const BellmanKernel& kernel, double beta,
                                   const SolveOptions& options = {},
                                   const std::vector<double>* warm_start = nullptr);

}  // namespace mdp
