// Bandwidth-optimized, thread-parallel Bellman backup kernel.
//
// The mean-payoff solvers spend essentially all of their time in the
// Bellman backup loop. The kernel sweeps the model's own CSR arrays in
// place — `targets[]` (4 B) and `probs[]` (8 B) per transition, the
// offset ladders per state and action — so constructing one copies
// nothing and costs nothing per model. The β-parameterized reward
// r_β(a) = Mdp::beta_reward(a, β) is rendered into a kernel-owned
// scratch once per solve, so Algorithm 1's bisection allocates no reward
// vector per step.
//
// Stop rule: every caller asks only for the sign of the optimal gain
// MP*_β (Algorithm 1's bisection step, threshold's probe), so a solve
// stops as soon as its certified interval [gain_lo, gain_hi] excludes 0,
// or, while it still holds 0, once it is narrower than
// MeanPayoffOptions::tol (a tie, which the caller resolves). The returned
// policy is greedy w.r.t. the vector the certifying sweep read, so its own
// gain is at least gain_lo. Algorithm 1 keeps that policy as its strategy
// when gain_lo > 0 certifies β_lo, and ends its search at a tie with the
// bracket [β + gain_lo/r, β + gain_hi/r], r the finalization-rate floor
// (analysis/algorithm1.hpp); a threshold probe counts a tie as fair.
//
// Determinism contract: synchronous sweeps (value iteration, the
// Gauss–Seidel certifier, policy extraction) are parallelized over
// contiguous state chunks. Every state's backup reads only the previous
// sweep's vector, per-chunk min/max delta reductions are combined in
// chunk order, and min/max are exact regardless of grouping — so results
// are bit-identical at any thread count. A kernel solve that stops after
// k sweeps equals the reference solver of mdp/value_iteration.cpp capped
// at max_iterations = k in every field but `converged` (the reference
// keeps only the tol rule); test_mdp_kernel pins both equivalences.
// Gauss–Seidel's in-place sweeps are order-dependent and stay serial, in
// ascending state order, exactly as in the reference.
//
// Value/scratch buffers are 64-byte aligned and chunk boundaries are
// rounded to cache-line multiples, so concurrent chunk writes never
// share a line. The worker pool and all scratch live for the kernel's
// lifetime: a 30-step bisection through analysis::analyze spawns
// threads once and allocates per-solve nothing after the first solve.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "mdp/mdp.hpp"
#include "mdp/value_iteration.hpp"
#include "support/aligned.hpp"

namespace support {
class ThreadPool;
}  // namespace support

namespace mdp {

class BellmanKernel {
 public:
  /// A kernel over `mdp`'s arrays. The Mdp must outlive the kernel.
  // Both out of line: the pool member's type is only forward-declared
  // here.
  explicit BellmanKernel(const Mdp& mdp);
  ~BellmanKernel();

  const Mdp& mdp() const { return *mdp_; }

  /// Relative value iteration on the reward vector Mdp::beta_rewards(beta)
  /// under the stop rule above: after k sweeps every field but
  /// `converged` equals mdp::value_iteration's with max_iterations = k, and
  /// `converged` reports that the stop rule fired. `threads` > 1 fans each
  /// synchronous sweep over state chunks (0 = all hardware threads); the
  /// result does not depend on the thread count. A non-null `warm_start`
  /// must match the model's state count exactly — a mismatched vector is
  /// rejected (it would otherwise silently cold-start and hide a caller
  /// bug). A solve must not run concurrently with another solve on the
  /// same kernel instance.
  MeanPayoffResult value_iteration(double beta,
                                   const MeanPayoffOptions& options = {},
                                   const std::vector<double>* warm_start =
                                       nullptr,
                                   int threads = 1) const;

  /// Gauss–Seidel variant, equal to mdp::gauss_seidel_value_iteration
  /// capped at the same sweep count on the same reward vector, with the
  /// stop rule above applied at each synchronous certification sweep:
  /// in-place sweeps run serially, the certification sweeps fan out over
  /// `threads`.
  MeanPayoffResult gauss_seidel(double beta,
                                const MeanPayoffOptions& options = {},
                                const std::vector<double>* warm_start =
                                    nullptr,
                                int threads = 1) const;

  /// Bytes one synchronous backup sweep streams through memory: the flat
  /// transition arrays plus the value gather per transition, the reward
  /// and offset loads per action, and the value read + write per state.
  /// Dividing by measured per-sweep wall time gives the achieved GB/s the
  /// ROADMAP's roofline item asks for (exported as
  /// selfish_mdp_bytes_per_sweep / selfish_mdp_achieved_gbps).
  std::size_t bytes_per_sweep() const;

 private:
  friend struct BellmanKernelView;

  /// Renders r_β into the solve-local scratch `reward_`, once per solve.
  /// The models average only ~1.5 transitions per action, so recomputing
  /// the reward inside every sweep would cost ~40% extra arithmetic;
  /// rendering once keeps the inner loop at one reward load (like the
  /// reference solvers) while still allocating nothing per bisection step —
  /// the scratch persists across the solves of one analysis.
  void fuse_rewards(double beta) const;

  /// Copies warm_start (validated) or zeros into the aligned iterate
  /// buffer v_ and sizes the companion scratch.
  void init_values(const std::vector<double>* warm_start) const;

  /// Returns the pool to sweep with: `threads` resolved, capped so no
  /// worker gets a trivially small state range, reusing the cached pool
  /// when the resolved width matches (the common case across the solves
  /// of one analysis). nullptr means run serial.
  support::ThreadPool* sweep_pool(int threads) const;

  const Mdp* mdp_;

  // Solve-lifetime scratch (mutable: solves are logically const). Both
  // value buffers are 64-byte aligned with cache-line padding so rounded
  // chunk edges never false-share.
  mutable support::AlignedDoubles reward_;  ///< r_β of the current solve.
  mutable support::AlignedDoubles v_;       ///< Current iterate.
  mutable support::AlignedDoubles v_next_;  ///< Sweep target / certifier.
  mutable std::unique_ptr<support::ThreadPool> pool_;
};

}  // namespace mdp
