#include "mdp/bellman_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/timer.hpp"

namespace mdp {

namespace {

/// Solver metric handles, registered once. The namespace-scope reference
/// below forces registration at static-init time so a fresh process's
/// `metrics` scrape already lists the mdp family at zero.
struct MdpMetrics {
  obs::Counter& solves = obs::counter(
      "selfish_mdp_solves_total", "Mean-payoff solves completed");
  obs::Counter& sweeps = obs::counter(
      "selfish_mdp_sweeps_total", "Synchronous Bellman backup sweeps run");
  obs::Counter& iterations = obs::counter(
      "selfish_mdp_iterations_total", "Solver iterations across all solves");
  obs::Gauge& bytes_per_sweep = obs::gauge(
      "selfish_mdp_bytes_per_sweep",
      "Bytes streamed by one backup sweep of the most recent model");
  obs::Histogram& sweep_seconds = obs::histogram(
      "selfish_mdp_sweep_seconds", "Wall time of one parallel backup sweep",
      obs::exponential_buckets(1e-5, 4.0, 12));
  obs::Histogram& achieved_gbps = obs::histogram(
      "selfish_mdp_achieved_gbps",
      "Memory bandwidth achieved by backup sweeps (roofline number)",
      obs::exponential_buckets(0.25, 2.0, 10));
};

MdpMetrics& mdp_metrics() {
  static MdpMetrics metrics;
  return metrics;
}

[[maybe_unused]] const MdpMetrics& g_registered_mdp_metrics = mdp_metrics();

/// Below this many states per worker, extra threads cost more in barrier
/// latency than they save; the sweep scheduler caps the worker count
/// accordingly (outputs are thread-count invariant either way). Low
/// enough that the d=2 test/CI models still exercise the parallel path.
constexpr StateId kMinStatesPerWorker = 256;

/// Chunk partition over a contiguous index range for the synchronous
/// sweeps of one solve, fanned over a borrowed kernel-lifetime pool
/// (nullptr = serial). Chunks are contiguous ranges rounded up to whole
/// cache lines of doubles, so two workers never store into the same
/// 64-byte line of the 64-byte-aligned value buffers; several chunks per
/// worker so uneven action/transition counts balance out.
class SweepRunner {
 public:
  SweepRunner(StateId n, support::ThreadPool* pool) : pool_(pool) {
    const int workers = pool != nullptr ? pool->num_threads() : 1;
    const StateId num_chunks =
        workers > 1 ? static_cast<StateId>(workers) * 4 : 1;
    StateId chunk = std::max<StateId>(1, (n + num_chunks - 1) / num_chunks);
    constexpr StateId kLine = static_cast<StateId>(support::kDoublesPerLine);
    chunk = (chunk + kLine - 1) / kLine * kLine;
    for (StateId begin = 0; begin < n; begin += chunk) {
      bounds_.emplace_back(begin, std::min<StateId>(begin + chunk, n));
    }
    if (bounds_.empty()) bounds_.emplace_back(0, 0);
  }

  std::size_t num_chunks() const { return bounds_.size(); }
  std::pair<StateId, StateId> bounds(std::size_t c) const { return bounds_[c]; }

  /// Runs fn(chunk_index) over all chunks; returns after all finish.
  void run(const std::function<void(std::size_t)>& fn) const {
    if (pool_ == nullptr) {
      for (std::size_t c = 0; c < bounds_.size(); ++c) fn(c);
      return;
    }
    support::parallel_for(*pool_, bounds_.size(), fn);
  }

 private:
  std::vector<std::pair<StateId, StateId>> bounds_;
  support::ThreadPool* pool_;
};

/// The one stop rule of every kernel solve. Its callers (Algorithm 1's
/// bisection and threshold's probes) ask only for the sign of the optimal
/// gain, which the certified interval settles as soon as it excludes 0;
/// an interval that still holds 0 stops once narrower than `tol` (a tie).
bool settled(double gain_lo, double gain_hi, double tol) {
  return gain_lo > 0.0 || gain_hi < 0.0 || gain_hi - gain_lo < tol;
}

void check_options(const MeanPayoffOptions& options) {
  SM_REQUIRE(options.tau > 0.0 && options.tau < 1.0,
             "tau must lie strictly inside (0,1): ", options.tau);
  SM_REQUIRE(options.tol > 0.0, "tolerance must be positive");
  SM_REQUIRE(options.max_iterations >= 1,
             "need at least one iteration, got ", options.max_iterations);
}

}  // namespace

/// Raw-pointer snapshot of the model's CSR arrays and the kernel's fused
/// rewards, hoisted once per solve so the backup helper below inlines
/// into the sweep loops with all base pointers in registers — matching
/// the codegen of the reference path's inline free function (a member
/// function reading through this->mdp_ measurably did not).
struct BellmanKernelView {
  const ActionId* action_begin;   ///< Size num_states + 1.
  const std::uint32_t* tr_begin;  ///< Size num_actions + 1.
  const StateId* targets;
  const double* probs;
  const double* reward;

  explicit BellmanKernelView(const BellmanKernel& kernel)
      : action_begin(kernel.mdp_->action_begins().data()),
        tr_begin(kernel.mdp_->transition_begins().data()),
        targets(kernel.mdp_->targets().data()),
        probs(kernel.mdp_->probs().data()),
        reward(kernel.reward_.data()) {}
};

namespace {

/// Best Q-value over the actions of `s` against `values` and the fused
/// rewards; writes the arg-max (lowest index wins ties) to `best_action`.
/// Bit-identical to the reference bellman_best on beta_rewards(beta).
inline double bellman_best(const BellmanKernelView& k, const double* values,
                           StateId s, ActionId* best_action) {
  double best = -std::numeric_limits<double>::infinity();
  ActionId best_a = kInvalidAction;
  const ActionId a_end = k.action_begin[s + 1];
  for (ActionId a = k.action_begin[s]; a < a_end; ++a) {
    double q = k.reward[a];
    const std::uint32_t t_end = k.tr_begin[a + 1];
    for (std::uint32_t i = k.tr_begin[a]; i < t_end; ++i) {
      q += k.probs[i] * values[k.targets[i]];
    }
    // Branchless arg-max: the update is data-dependent and mispredicts
    // on ~every other action, which on a 1-wide memory-bound sweep costs
    // more than the select. Identical semantics (strict >, ties keep the
    // earlier action) — byte-identical results.
    const bool better = q > best;
    best = better ? q : best;
    best_a = better ? a : best_a;
  }
  *best_action = best_a;
  return best;
}

/// Synchronous backup over the contiguous state range [begin, end)
/// against the frozen `values`: calls per_state(s, bellman, best_action)
/// for every state in ascending order.
template <typename PerState>
inline void backup_states(const BellmanKernelView& k, const double* values,
                          StateId begin, StateId end, PerState&& per_state) {
  if (begin >= end) return;
  ActionId best_a = kInvalidAction;
  for (StateId s = begin; s < end; ++s) {
    const double q = bellman_best(k, values, s, &best_a);
    per_state(s, q, best_a);
  }
}

}  // namespace

BellmanKernel::BellmanKernel(const Mdp& mdp) : mdp_(&mdp) {}

BellmanKernel::~BellmanKernel() = default;

std::size_t BellmanKernel::bytes_per_sweep() const {
  // Per transition: target id + probability + the v[target] gather.
  // Per action: fused reward + CSR offset. Per state: action offset +
  // v[s] read + v_next[s] write. Compulsory traffic only — a lower bound
  // on actual traffic (gathers that miss cost whole cache lines), which
  // keeps the derived GB/s number conservative.
  return mdp_->num_transitions() * (sizeof(StateId) + 2 * sizeof(double)) +
         mdp_->num_actions() * (sizeof(double) + sizeof(std::uint32_t)) +
         mdp_->num_states() * (sizeof(ActionId) + 2 * sizeof(double));
}

void BellmanKernel::fuse_rewards(double beta) const {
  const ActionId num_actions = mdp_->num_actions();
  reward_.resize(num_actions);
  for (ActionId a = 0; a < num_actions; ++a) {
    reward_[a] = mdp_->beta_reward(a, beta);
  }
}

void BellmanKernel::init_values(const std::vector<double>* warm_start) const {
  const StateId n = mdp_->num_states();
  if (warm_start != nullptr) {
    // warm_start->size() is std::size_t, n is a 32-bit StateId; widen n
    // explicitly so the comparison is exact, and reject mismatches loudly
    // — silently cold-starting here would hide a caller passing values
    // from a different model.
    SM_REQUIRE(warm_start->size() == static_cast<std::size_t>(n),
               "warm-start vector has ", warm_start->size(),
               " entries but the model has ", n,
               " states; pass values from the same model or nullptr");
    v_.assign(*warm_start);
  } else {
    v_.assign(static_cast<std::size_t>(n), 0.0);
  }
  v_next_.assign(static_cast<std::size_t>(n), 0.0);
}

support::ThreadPool* BellmanKernel::sweep_pool(int threads) const {
  const StateId n = mdp_->num_states();
  int workers = support::resolve_thread_count(threads);
  workers = static_cast<int>(std::min<StateId>(
      static_cast<StateId>(workers),
      std::max<StateId>(1, n / kMinStatesPerWorker)));
  if (workers <= 1) return nullptr;
  // The pool outlives the solve: across the ~30 β-solves of one
  // analysis the resolved width is stable, so threads spawn exactly once.
  if (pool_ == nullptr || pool_->num_threads() != workers) {
    pool_ = std::make_unique<support::ThreadPool>(workers);
  }
  return pool_.get();
}

MeanPayoffResult BellmanKernel::value_iteration(
    double beta, const MeanPayoffOptions& options,
    const std::vector<double>* warm_start, int threads) const {
  const StateId n = mdp_->num_states();
  check_options(options);
  fuse_rewards(beta);
  init_values(warm_start);
  const BellmanKernelView kview(*this);

  MeanPayoffResult result;
  result.policy.assign(n, kInvalidAction);
  double* const v = v_.data();
  double* const v_next = v_next_.data();
  ActionId* const policy = result.policy.data();

  const double tau = options.tau;
  const double one_minus_tau = 1.0 - tau;

  const SweepRunner sweep(n, sweep_pool(threads));
  std::vector<double> chunk_lo(sweep.num_chunks());
  std::vector<double> chunk_hi(sweep.num_chunks());

  // Observe-only roofline bookkeeping: timing covers the backup sweep
  // alone (the bandwidth-bound phase), and the timer itself is skipped
  // when observability is off so the hot loop stays untouched.
  obs::Span span("mdp.value_iteration");
  const bool observe = obs::enabled();
  const double sweep_bytes = static_cast<double>(bytes_per_sweep());
  if (observe) mdp_metrics().bytes_per_sweep.set(
      static_cast<std::int64_t>(sweep_bytes));

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    support::Timer sweep_timer;
    sweep.run([&](std::size_t c) {
      const auto [begin, end] = sweep.bounds(c);
      double lo = std::numeric_limits<double>::infinity();
      double hi = -lo;
      backup_states(kview, v, begin, end,
                    [&](StateId s, double bellman, ActionId best_a) {
        // Lazy update = value iteration on the transformed (aperiodic)
        // MDP.
        const double updated = one_minus_tau * bellman + tau * v[s];
        const double delta = updated - v[s];
        if (delta < lo) lo = delta;
        if (delta > hi) hi = delta;
        v_next[s] = updated;
        policy[s] = best_a;
      });
      chunk_lo[c] = lo;
      chunk_hi[c] = hi;
    });
    if (observe) {
      const double elapsed = sweep_timer.seconds();
      MdpMetrics& metrics = mdp_metrics();
      metrics.sweeps.add(1);
      metrics.sweep_seconds.observe(elapsed);
      if (elapsed > 0.0) {
        metrics.achieved_gbps.observe(sweep_bytes / elapsed / 1e9);
      }
    }
    // min/max are exact under any grouping; combining the per-chunk
    // reductions in chunk order is for clarity, not correctness.
    double delta_lo = std::numeric_limits<double>::infinity();
    double delta_hi = -delta_lo;
    for (std::size_t c = 0; c < sweep.num_chunks(); ++c) {
      if (chunk_lo[c] < delta_lo) delta_lo = chunk_lo[c];
      if (chunk_hi[c] > delta_hi) delta_hi = chunk_hi[c];
    }
    result.iterations = iter;
    // Gain of the transformed MDP is (1−τ)·gain; undo the scaling.
    result.gain_lo = delta_lo / one_minus_tau;
    result.gain_hi = delta_hi / one_minus_tau;

    // Renormalize to keep values bounded; uniform shifts do not affect
    // Bellman differences.
    const double shift = v_next[0];
    sweep.run([&](std::size_t c) {
      const auto [begin, end] = sweep.bounds(c);
      for (StateId s = begin; s < end; ++s) v[s] = v_next[s] - shift;
    });

    if (settled(result.gain_lo, result.gain_hi, options.tol)) {
      result.converged = true;
      break;
    }
  }

  result.gain = 0.5 * (result.gain_lo + result.gain_hi);
  v_.copy_to(&result.values);
  if (observe) {
    MdpMetrics& metrics = mdp_metrics();
    metrics.solves.add(1);
    metrics.iterations.add(static_cast<std::uint64_t>(result.iterations));
  }
  span.attr("states", serve::Json(static_cast<std::int64_t>(n)));
  span.attr("iterations", serve::Json(
      static_cast<std::int64_t>(result.iterations)));
  span.attr("converged", serve::Json(result.converged));
  // result.policy was captured by the final sweep: greedy w.r.t. the
  // vector that sweep backed up from, so its own gain is at least gain_lo
  // (Odoni's bound for the fixed policy) — no extra extraction sweep.
  return result;
}

MeanPayoffResult BellmanKernel::gauss_seidel(
    double beta, const MeanPayoffOptions& options,
    const std::vector<double>* warm_start, int threads) const {
  const StateId n = mdp_->num_states();
  check_options(options);
  fuse_rewards(beta);
  init_values(warm_start);
  const BellmanKernelView kview(*this);

  MeanPayoffResult result;
  result.policy.assign(n, kInvalidAction);
  double* const v = v_.data();
  double* const scratch = v_next_.data();
  ActionId* const policy = result.policy.data();

  const double tau = options.tau;
  const double one_minus_tau = 1.0 - tau;

  const SweepRunner sweep(n, sweep_pool(threads));
  std::vector<double> chunk_lo(sweep.num_chunks());
  std::vector<double> chunk_hi(sweep.num_chunks());

  obs::Span span("mdp.gauss_seidel");
  if (obs::enabled()) {
    mdp_metrics().bytes_per_sweep.set(
        static_cast<std::int64_t>(bytes_per_sweep()));
  }

  // True when result.policy is greedy w.r.t. the vector the most recent
  // synchronous sweep read (no in-place sweep has moved v since).
  bool policy_fresh = false;

  // A synchronous Bellman sweep yields the classical arbitrary-v bounds
  // min/max (Tv − v) on the transformed gain; we use it as the certifier
  // (and it captures the greedy policy as a side effect).
  const auto certify = [&] {
    sweep.run([&](std::size_t c) {
      const auto [begin, end] = sweep.bounds(c);
      double lo = std::numeric_limits<double>::infinity();
      double hi = -lo;
      backup_states(kview, v, begin, end,
                    [&](StateId s, double bellman, ActionId best_a) {
        const double updated = one_minus_tau * bellman + tau * v[s];
        const double delta = updated - v[s];
        if (delta < lo) lo = delta;
        if (delta > hi) hi = delta;
        scratch[s] = updated;
        policy[s] = best_a;
      });
      chunk_lo[c] = lo;
      chunk_hi[c] = hi;
    });
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (std::size_t c = 0; c < sweep.num_chunks(); ++c) {
      if (chunk_lo[c] < lo) lo = chunk_lo[c];
      if (chunk_hi[c] > hi) hi = chunk_hi[c];
    }
    const double shift = scratch[0];
    sweep.run([&](std::size_t c) {
      const auto [begin, end] = sweep.bounds(c);
      for (StateId s = begin; s < end; ++s) v[s] = scratch[s] - shift;
    });
    policy_fresh = true;
    result.gain_lo = lo / one_minus_tau;
    result.gain_hi = hi / one_minus_tau;
    return settled(result.gain_lo, result.gain_hi, options.tol);
  };

  int iter = 0;
  // In-place backups absorb the mean-payoff drift non-uniformly, so the
  // sweep subtracts the current gain estimate (GS on the Poisson equation;
  // see mdp/value_iteration.cpp for the full derivation).
  double gain_prime_estimate = 0.0;  // gain of the transformed MDP
  constexpr int kCertifyEvery = 16;
  int sweeps_since_certify = 0;

  ActionId scratch_action = kInvalidAction;
  while (iter < options.max_iterations) {
    ++iter;
    ++sweeps_since_certify;
    policy_fresh = false;
    // The in-place sweep is order-dependent by construction and stays
    // serial: later states see earlier states' new values immediately.
    double change = 0.0;
    for (StateId s = 0; s < n; ++s) {
      const double bellman = bellman_best(kview, v, s, &scratch_action);
      const double updated =
          one_minus_tau * bellman + tau * v[s] - gain_prime_estimate;
      const double diff = std::fabs(updated - v[s]);
      if (diff > change) change = diff;
      v[s] = updated;
    }
    const double shift = v[0];
    for (StateId s = 0; s < n; ++s) v[s] -= shift;

    if ((change < 0.25 * options.tol ||
         sweeps_since_certify >= kCertifyEvery) &&
        iter < options.max_iterations) {
      ++iter;
      sweeps_since_certify = 0;
      const bool done = certify();
      gain_prime_estimate =
          0.5 * (result.gain_lo + result.gain_hi) * one_minus_tau;
      if (done) {
        result.converged = true;
        break;
      }
    }
  }
  result.iterations = iter;
  result.gain = 0.5 * (result.gain_lo + result.gain_hi);
  v_.copy_to(&result.values);
  if (obs::enabled()) {
    MdpMetrics& metrics = mdp_metrics();
    metrics.solves.add(1);
    // Every Gauss–Seidel iteration is one full state sweep (in-place or
    // synchronous certification).
    metrics.sweeps.add(static_cast<std::uint64_t>(iter));
    metrics.iterations.add(static_cast<std::uint64_t>(iter));
  }
  span.attr("states", serve::Json(static_cast<std::int64_t>(n)));
  span.attr("iterations", serve::Json(static_cast<std::int64_t>(iter)));
  span.attr("converged", serve::Json(result.converged));
  if (!policy_fresh) {
    // Only reachable without convergence (the converged exit leaves the
    // final certifier's policy in place): extract against the current v
    // so the returned policy is at least self-consistent.
    sweep.run([&](std::size_t c) {
      const auto [begin, end] = sweep.bounds(c);
      for (StateId s = begin; s < end; ++s) {
        bellman_best(kview, v, s, &result.policy[s]);
      }
    });
  }
  return result;
}

}  // namespace mdp
