// Bandwidth-optimized, thread-parallel Bellman backup kernel.
//
// The mean-payoff solves spend essentially all of their time in the
// Bellman backup loop. The kernel sweeps the model's own CSR arrays in
// place — `targets[]` (4 B) and `probs[]` (8 B) per transition, the
// offset ladders per state and action — so constructing one copies no
// array; it keeps only the runs of the model's two state classes. The
// β-parameterized reward r_β(a) = Mdp::beta_reward(a, β) is rendered into
// a kernel-owned scratch once per solve, so Algorithm 1's bisection
// allocates no reward vector per step.
//
// The sweep: every model the kernel accepts is 2-periodic, split into
// mining and decision states (mdp::step_classes, derived once per kernel;
// a model without the split is refused). Each sweep is two synchronous
// passes over one value vector — decision states back up from the mining
// values, then mining states from the decision values — so it advances
// two MDP steps, needs no lazy transform, and reports Odoni's two-step
// bounds halved to one MDP step (mdp/value_iteration.hpp derives them).
//
// Stop rule: every caller asks only for the sign of the optimal gain
// MP*_β (Algorithm 1's bisection step, threshold's probe), so a solve
// stops as soon as its certified interval [gain_lo, gain_hi] excludes 0,
// or, while it still holds 0, once it is narrower than
// MeanPayoffOptions::tol (a tie, which the caller resolves). The returned
// policy is greedy w.r.t. the vectors the certifying sweep read, so its own
// gain is at least gain_lo. Algorithm 1 keeps that policy as its strategy
// when gain_lo > 0 certifies β_lo, and ends its search at a tie with the
// bracket [β + gain_lo/r, β + gain_hi/r], r the finalization-rate floor
// (analysis/algorithm1.hpp); a threshold probe counts a tie as fair.
//
// Determinism contract: each pass is parallelized over segments of its
// class's runs of consecutive state ids. A state's backup reads only the
// other class's values, which no worker writes during the pass,
// per-segment min/max delta reductions are combined in segment order, and
// min/max are exact regardless of grouping — so results are bit-identical
// at any thread count. A kernel solve that stops after k sweeps equals the
// reference solver of mdp/value_iteration.cpp capped at
// max_iterations = k in every field but `converged` (the reference keeps
// only the tol rule); test_mdp_kernel pins both equivalences.
//
// The worker pool and all scratch live for the kernel's lifetime: a
// 30-step bisection through analysis::analyze spawns threads once and
// allocates per-solve nothing after the first solve.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "mdp/mdp.hpp"
#include "mdp/value_iteration.hpp"
#include "support/aligned.hpp"

namespace support {
class ThreadPool;
}  // namespace support

namespace mdp {

/// Half-open ranges [begin, end) of state ids.
using StateRuns = std::vector<std::pair<StateId, StateId>>;

class BellmanKernel {
 public:
  /// A kernel over `mdp`'s arrays. The Mdp must outlive the kernel. Throws
  /// support::InvalidArgument when the model has no mining/decision split.
  // Both out of line: the pool member's type is only forward-declared
  // here.
  explicit BellmanKernel(const Mdp& mdp);
  ~BellmanKernel();

  const Mdp& mdp() const { return *mdp_; }

  /// Relative value iteration on the reward vector Mdp::beta_rewards(beta)
  /// under the stop rule above: after k sweeps every field but
  /// `converged` equals mdp::value_iteration's with max_iterations = k, and
  /// `converged` reports that the stop rule fired. `threads` > 1 fans each
  /// pass over state chunks (0 = all hardware threads); the result does not
  /// depend on the thread count. A non-null `warm_start` must match the
  /// model's state count exactly — a mismatched vector is rejected (it
  /// would otherwise silently cold-start and hide a caller bug). A solve
  /// must not run concurrently with another solve on the same kernel
  /// instance.
  MeanPayoffResult value_iteration(double beta,
                                   const MeanPayoffOptions& options = {},
                                   const std::vector<double>* warm_start =
                                       nullptr,
                                   int threads = 1) const;

  /// Bytes one sweep streams through memory: the flat transition arrays
  /// plus the value gather per transition, the reward and offset loads per
  /// action, the action offset, class-list entry and value write per
  /// state, and the old value each mining state's delta reads. Dividing by
  /// measured per-sweep wall time gives the achieved GB/s (exported as
  /// selfish_mdp_bytes_per_sweep / selfish_mdp_achieved_gbps).
  std::size_t bytes_per_sweep() const;

 private:
  friend struct BellmanKernelView;

  /// Renders r_β into the solve-local scratch `reward_`, once per solve.
  /// The models average only ~1.5 transitions per action, so recomputing
  /// the reward inside every sweep would cost ~40% extra arithmetic;
  /// rendering once keeps the inner loop at one reward load (like the
  /// reference solver) while still allocating nothing per bisection step —
  /// the scratch persists across the solves of one analysis.
  void fuse_rewards(double beta) const;

  /// Copies warm_start (validated) or zeros into the aligned iterate
  /// buffer v_.
  void init_values(const std::vector<double>* warm_start) const;

  /// Returns the pool to sweep with: `threads` resolved, capped so no
  /// worker gets a trivially small state range, reusing the cached pool
  /// when the resolved width matches (the common case across the solves
  /// of one analysis). nullptr means run serial.
  support::ThreadPool* sweep_pool(int threads) const;

  const Mdp* mdp_;
  /// The model's two classes as runs of consecutive state ids: states are
  /// numbered in BFS order, layer by layer, so the runs are long (53 in
  /// all at d=3,f=2) and each pass sweeps them like contiguous ranges.
  StateRuns mining_runs_;
  StateRuns decision_runs_;
  std::size_t mining_states_ = 0;

  // Solve-lifetime scratch (mutable: solves are logically const), 64-byte
  // aligned.
  mutable support::AlignedDoubles reward_;  ///< r_β of the current solve.
  mutable support::AlignedDoubles v_;       ///< The one value vector.
  mutable std::unique_ptr<support::ThreadPool> pool_;
};

}  // namespace mdp
