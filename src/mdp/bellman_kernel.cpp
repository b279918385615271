#include "mdp/bellman_kernel.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <utility>

#include "mdp/markov_chain.hpp"
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

/// The work of one pass: the runs of one class's consecutive state ids,
/// cut at multiples of a chunk size into segments, fanned over a borrowed
/// kernel-lifetime pool (nullptr = serial). Several chunks per worker so
/// uneven action/transition counts balance out, and chunk edges are whole
/// cache lines of doubles, so two workers never store into one 64-byte
/// line of the 64-byte-aligned value buffer inside a run.
class PassRunner {
 public:
  PassRunner(const StateRuns& runs, StateId num_states,
             support::ThreadPool* pool)
      : pool_(pool) {
    const std::size_t workers =
        pool != nullptr ? static_cast<std::size_t>(pool->num_threads()) : 1;
    const std::size_t num_chunks = workers > 1 ? workers * 4 : 1;
    std::size_t chunk = std::max<std::size_t>(
        1, (num_states + num_chunks - 1) / num_chunks);
    chunk = (chunk + support::kDoublesPerLine - 1) / support::kDoublesPerLine *
            support::kDoublesPerLine;
    for (const auto& [begin, end] : runs) {
      for (std::size_t b = begin; b < end;) {
        const std::size_t e =
            std::min<std::size_t>(end, (b / chunk + 1) * chunk);
        segments_.emplace_back(static_cast<StateId>(b),
                               static_cast<StateId>(e));
        b = e;
      }
    }
  }

  std::size_t num_segments() const { return segments_.size(); }
  std::pair<StateId, StateId> segment(std::size_t i) const {
    return segments_[i];
  }

  /// Runs fn(segment_index) over all segments; returns after all finish.
  void run(const std::function<void(std::size_t)>& fn) const {
    if (pool_ == nullptr) {
      for (std::size_t i = 0; i < segments_.size(); ++i) fn(i);
      return;
    }
    support::parallel_for(*pool_, segments_.size(), fn);
  }

 private:
  std::vector<std::pair<StateId, StateId>> segments_;
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
  SM_REQUIRE(options.tol > 0.0, "tolerance must be positive");
  SM_REQUIRE(options.max_iterations >= 1,
             "need at least one iteration, got ", options.max_iterations);
}

}  // namespace

/// Raw-pointer snapshot of the model's CSR arrays and the kernel's fused
/// rewards, hoisted once per solve so the backup helper below inlines
/// into the pass loops with all base pointers in registers — matching
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

/// Backs up the contiguous state range [begin, end) against `values`:
/// calls per_state(s, bellman, best_action) for every state in ascending
/// order.
template <typename PerState>
inline void backup_states(const BellmanKernelView& k, const double* values,
                          StateId begin, StateId end, PerState&& per_state) {
  ActionId best_a = kInvalidAction;
  for (StateId s = begin; s < end; ++s) {
    const double q = bellman_best(k, values, s, &best_a);
    per_state(s, q, best_a);
  }
}

}  // namespace

BellmanKernel::BellmanKernel(const Mdp& mdp) : mdp_(&mdp) {
  const std::vector<StepClass> classes = step_classes(mdp);
  const StateId n = mdp.num_states();
  for (StateId begin = 0, s = 1; s <= n; ++s) {
    if (s < n && classes[s] == classes[begin]) continue;
    if (classes[begin] == StepClass::kMining) {
      mining_runs_.emplace_back(begin, s);
      mining_states_ += s - begin;
    } else {
      decision_runs_.emplace_back(begin, s);
    }
    begin = s;
  }
}

BellmanKernel::~BellmanKernel() = default;

std::size_t BellmanKernel::bytes_per_sweep() const {
  // Per transition: target id + probability + the v[target] gather.
  // Per action: fused reward + CSR offset. Per state: action offset +
  // value write; per mining state also the old value its delta reads.
  // Compulsory traffic only — a lower bound on actual traffic (gathers
  // that miss cost whole cache lines), which keeps the derived GB/s number
  // conservative.
  return mdp_->num_transitions() * (sizeof(StateId) + 2 * sizeof(double)) +
         mdp_->num_actions() * (sizeof(double) + sizeof(std::uint32_t)) +
         mdp_->num_states() * (sizeof(ActionId) + sizeof(double)) +
         mining_states_ * sizeof(double);
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
  ActionId* const policy = result.policy.data();
  const StateId initial = mdp_->initial_state();

  support::ThreadPool* const pool = sweep_pool(threads);
  const PassRunner decision_pass(decision_runs_, n, pool);
  const PassRunner mining_pass(mining_runs_, n, pool);
  std::vector<double> segment_lo(mining_pass.num_segments());
  std::vector<double> segment_hi(mining_pass.num_segments());

  // Observe-only roofline bookkeeping: timing covers the sweep's two
  // passes alone (the bandwidth-bound phase), and the timer itself is
  // skipped when observability is off so the hot loop stays untouched.
  obs::Span span("mdp.value_iteration");
  const bool observe = obs::enabled();
  const double sweep_bytes = static_cast<double>(bytes_per_sweep());
  if (observe) mdp_metrics().bytes_per_sweep.set(
      static_cast<std::int64_t>(sweep_bytes));

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    support::Timer sweep_timer;
    // Decision pass: q = T_D w. Decision states read only mining values.
    decision_pass.run([&](std::size_t c) {
      const auto [begin, end] = decision_pass.segment(c);
      backup_states(kview, v, begin, end,
                    [&](StateId s, double bellman, ActionId best_a) {
        v[s] = bellman;
        policy[s] = best_a;
      });
    });
    // Mining pass: w' = T_M q. Mining states read only decision values,
    // so each overwrites its own w in place. Renormalizing by w'(initial),
    // backed up once up front, keeps values bounded inside the same pass;
    // uniform shifts do not affect Bellman differences.
    ActionId initial_action = kInvalidAction;
    const double shift = bellman_best(kview, v, initial, &initial_action);
    mining_pass.run([&](std::size_t c) {
      const auto [begin, end] = mining_pass.segment(c);
      double lo = std::numeric_limits<double>::infinity();
      double hi = -lo;
      backup_states(kview, v, begin, end,
                    [&](StateId m, double bellman, ActionId best_a) {
        const double delta = bellman - v[m];
        if (delta < lo) lo = delta;
        if (delta > hi) hi = delta;
        v[m] = bellman - shift;
        policy[m] = best_a;
      });
      segment_lo[c] = lo;
      segment_hi[c] = hi;
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
    // min/max are exact under any grouping; combining the per-segment
    // reductions in segment order is for clarity, not correctness.
    double delta_lo = std::numeric_limits<double>::infinity();
    double delta_hi = -delta_lo;
    for (std::size_t c = 0; c < mining_pass.num_segments(); ++c) {
      if (segment_lo[c] < delta_lo) delta_lo = segment_lo[c];
      if (segment_hi[c] > delta_hi) delta_hi = segment_hi[c];
    }
    result.iterations = iter;
    // Odoni's bounds on the two-step gain, halved to one MDP step.
    result.gain_lo = 0.5 * delta_lo;
    result.gain_hi = 0.5 * delta_hi;

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
  span.attr("beta", serve::Json(beta));
  span.attr("iterations", serve::Json(
      static_cast<std::int64_t>(result.iterations)));
  span.attr("converged", serve::Json(result.converged));
  span.attr("gain_lo", serve::Json(result.gain_lo));
  span.attr("gain_hi", serve::Json(result.gain_hi));
  // result.policy was captured by the final sweep's two passes: greedy
  // w.r.t. the vectors they backed up from, so its own gain is at least
  // gain_lo (Odoni's bound for the fixed policy) — no extra extraction
  // sweep.
  return result;
}

}  // namespace mdp
