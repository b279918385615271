// The options of Algorithm 1's mean-payoff solves. Every solve runs on one
// mdp::BellmanKernel (bellman_kernel.hpp): relative value iteration on the
// mining-step operator, whose Odoni-certified gain interval stops the
// solve as soon as it settles the sign of the optimal gain — it excludes
// 0, or it still holds 0 at a width below MeanPayoffOptions::tol (a tie).
// The returned policy's own gain is at least gain_lo;
// analysis/algorithm1.hpp describes how Algorithm 1 turns signs, ties and
// policies into its bracket and strategy. The reference loop in
// value_iteration.hpp and the exact dense solver (dense_solver.hpp) are
// test oracles.
#pragma once

#include <cstdint>

#include "mdp/bellman_kernel.hpp"
#include "mdp/value_iteration.hpp"

namespace mdp {

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
  MeanPayoffOptions mean_payoff;  ///< Tolerances of the kernel sweeps.
  /// Worker threads for the kernel's synchronous passes (0 = all hardware
  /// threads). Results are bit-identical at any thread count
  /// (test_mdp_kernel), so this is pure speed — the engine's job keys
  /// deliberately exclude it.
  int threads = 1;
  KernelTuning tuning;  ///< Read by nothing; see GatherMode.
};

}  // namespace mdp
