// Solver micro-benchmarks (google-benchmark): model construction (a whole
// build, and one render on a built shape), one
// mean-payoff solve — the reference solver vs the BellmanKernel at
// several thread counts — full Algorithm 1, the
// single-tree baseline, and the stationary evaluation: the building
// blocks whose costs compose into Table 1.
//
// The kernel rows are the perf-trajectory anchors: CI's solver-perf job
// runs this binary with --benchmark_out=BENCH_solvers.json and uploads
// the JSON, so kernel-vs-reference and 1-vs-N-thread ratios are recorded
// per commit, and BM_StreamTriad measures the host's memory-bandwidth
// peak that the kernel rows' achieved_gbps is judged against. (Results
// are bit-identical across every thread count — test_mdp_kernel pins
// that.)
//
// The kernel rows time a sign solve: the kernel stops as soon as its
// certified gain interval excludes 0, and β = 0.4 lies well below ERRev*
// (0.44–0.53) of their f = 2 models, so they run far fewer sweeps than the
// reference rows (BM_ValueIteration), which keep the tol-only rule.
// Compare them per sweep (achieved_gbps, sweep_p50_ms), not per solve.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/algorithm1.hpp"
#include "analysis/errev.hpp"
#include "baselines/single_tree.hpp"
#include "mdp/bellman_kernel.hpp"
#include "mdp/dense_solver.hpp"
#include "obs/metrics.hpp"
#include "selfish/build.hpp"

namespace {

selfish::AttackParams params_for(int d, int f) {
  return selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = d, .f = f, .l = 4};
}

// Handle to the kernel's own per-sweep wall-time histogram (same
// name/bounds, so the registry returns the existing series).
obs::Histogram& sweep_seconds_histogram() {
  return obs::histogram(
      "selfish_mdp_sweep_seconds", "Wall time of one parallel backup sweep",
      obs::exponential_buckets(1e-5, 4.0, 12));
}

// The histogram is process-global and cumulative; the per-row percentiles
// must cover only this run's sweeps, so each bench rows snapshots before
// its timed loop and quantiles the delta.
obs::HistogramSnapshot snapshot_delta(const obs::HistogramSnapshot& before,
                                      const obs::HistogramSnapshot& after) {
  obs::HistogramSnapshot delta = after;
  for (std::size_t i = 0;
       i < delta.counts.size() && i < before.counts.size(); ++i) {
    delta.counts[i] -= before.counts[i];
  }
  delta.count -= before.count;
  delta.sum -= before.sum;
  return delta;
}

// Per-sweep wall-time p50/p99 (milliseconds, matching the row's time
// unit) next to achieved_gbps on every kernel VI row: the mean a row's
// real_time implies hides certification hiccups and warmup; the spread
// is what the roofline comparison actually needs. Counters are omitted
// when observability is off (SELFISH_OBS=0) — absent, not fake zeros.
void attach_sweep_percentiles(benchmark::State& state,
                              const obs::HistogramSnapshot& before) {
  const obs::HistogramSnapshot delta =
      snapshot_delta(before, sweep_seconds_histogram().snapshot());
  if (delta.count == 0) return;
  state.counters["sweep_p50_ms"] = delta.quantile(0.50) * 1e3;
  state.counters["sweep_p99_ms"] = delta.quantile(0.99) * 1e3;
}

void BM_BuildModel(benchmark::State& state) {
  const auto params = params_for(static_cast<int>(state.range(0)),
                                 static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto model = selfish::build_model(params);
    benchmark::DoNotOptimize(model.mdp.num_states());
  }
  state.counters["states"] = static_cast<double>(
      selfish::build_model(params).mdp.num_states());
}
BENCHMARK(BM_BuildModel)->Args({1, 1})->Args({2, 1})->Args({2, 2})
    ->Args({3, 2})->Unit(benchmark::kMillisecond);

void BM_RenderModel(benchmark::State& state) {
  // One point rendered on a shape built once: the model cost of every
  // further point of an engine batch or threshold run, against
  // BM_BuildModel's whole enumeration.
  const auto params = params_for(static_cast<int>(state.range(0)),
                                 static_cast<int>(state.range(1)));
  const selfish::ModelShape shape = selfish::build_shape(params);
  for (auto _ : state) {
    auto model = selfish::render(shape, params);
    benchmark::DoNotOptimize(model.mdp.num_states());
  }
  state.counters["states"] =
      static_cast<double>(shape.structure()->num_states());
}
BENCHMARK(BM_RenderModel)->Args({3, 2})->Unit(benchmark::kMillisecond);

void BM_ValueIteration(benchmark::State& state) {
  // The reference solver — the baseline every kernel row compares against.
  const auto model = selfish::build_model(
      params_for(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1))));
  const auto rewards = model.mdp.beta_rewards(0.4);
  for (auto _ : state) {
    const auto result = mdp::value_iteration(model.mdp, rewards);
    benchmark::DoNotOptimize(result.gain);
  }
  state.counters["states"] =
      static_cast<double>(model.mdp.num_states());
}
BENCHMARK(BM_ValueIteration)
    ->Args({1, 1})->Args({2, 1})->Args({2, 2})->Args({3, 2})
    ->Unit(benchmark::kMillisecond);
// The paper's heaviest configuration (≈1.2M states, ≈10.4M transitions):
// the bandwidth-bound regime the kernel targets. One iteration — a
// solve takes tens of seconds.
BENCHMARK(BM_ValueIteration)->Args({4, 2})
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_KernelValueIteration(benchmark::State& state) {
  // The kernel, threads = range(2): a sign solve, whose k sweeps are
  // bit-identical to BM_ValueIteration's first k (test_mdp_kernel pins
  // that).
  const auto model = selfish::build_model(
      params_for(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1))));
  const mdp::BellmanKernel kernel(model.mdp);
  const int threads = static_cast<int>(state.range(2));
  std::int64_t sweeps = 0;
  const obs::HistogramSnapshot before = sweep_seconds_histogram().snapshot();
  for (auto _ : state) {
    const auto result = kernel.value_iteration(0.4, {}, nullptr, threads);
    benchmark::DoNotOptimize(result.gain);
    sweeps += result.iterations;
  }
  // The ROADMAP roofline row: bytes one synchronous sweep streams (also
  // exported live as selfish_mdp_bytes_per_sweep) and the achieved
  // bandwidth GB/s = bytes_per_sweep * sweeps / wall — compare against
  // BM_StreamTriad's measured peak to see how far the kernel sits from
  // the memory wall.
  state.counters["bytes_per_sweep"] =
      static_cast<double>(kernel.bytes_per_sweep());
  state.counters["achieved_gbps"] = benchmark::Counter(
      static_cast<double>(kernel.bytes_per_sweep()) *
          static_cast<double>(sweeps) / 1e9,
      benchmark::Counter::kIsRate);
  attach_sweep_percentiles(state, before);
}
BENCHMARK(BM_KernelValueIteration)
    ->Args({2, 2, 1})->Args({2, 2, 8})
    ->Args({3, 2, 1})->Args({3, 2, 2})->Args({3, 2, 4})->Args({3, 2, 8})
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_KernelValueIteration)
    ->Args({4, 2, 1})->Args({4, 2, 2})->Args({4, 2, 4})->Args({4, 2, 8})
    ->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(1);

void BM_StreamTriad(benchmark::State& state) {
  // STREAM-like triad peak for this host: a[i] = b[i] + s·c[i] over
  // arrays far past L2, 24 explicit bytes per element (write-allocate
  // traffic not counted, per STREAM convention). The *sequential* peak —
  // an upper bound no gather-laden sweep can reach; BM_SweepStream below
  // measures the pattern-correct roofline.
  constexpr std::size_t kElements = std::size_t{8} << 20;  // 64 MB/array
  std::vector<double> a(kElements, 0.0);
  std::vector<double> b(kElements, 1.0);
  std::vector<double> c(kElements, 2.0);
  const double s = 3.0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kElements; ++i) a[i] = b[i] + s * c[i];
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
  state.counters["achieved_gbps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(kElements) * 24.0 / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StreamTriad)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SweepStream(benchmark::State& state) {
  // The measured peak *for the sweep's own access pattern*: one
  // synchronous backup sweep's exact data movement — the model's flat
  // target/prob streams in CSR order, the v[target] gather, reward +
  // offset per action, v read / v_next write per state — with the solver
  // logic (max-reduction, policy and convergence bookkeeping) replaced
  // by a straight sum. Counted by the same compulsory-traffic rule as the
  // kernel's bytes_per_sweep (gather line fills not counted), so
  // achieved_gbps here is the roofline the kernel VI rows should be judged
  // against: the sequential triad above overstates it, because a
  // near-random gather per 12 streamed bytes costs line fills the
  // accounting deliberately leaves out.
  const auto model = selfish::build_model(
      params_for(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1))));
  const mdp::Mdp& m = model.mdp;
  const mdp::StateId n = m.num_states();
  const std::vector<std::uint32_t> action_begin(m.action_begins().begin(),
                                                m.action_begins().end());
  const std::vector<std::uint32_t> tr_begin(m.transition_begins().begin(),
                                            m.transition_begins().end());
  const std::vector<std::uint32_t> targets(m.targets().begin(),
                                           m.targets().end());
  const std::vector<double> probs(m.probs().begin(), m.probs().end());
  const std::vector<double> reward = m.beta_rewards(0.4);
  const std::vector<double> v(static_cast<std::size_t>(n), 1.0);
  std::vector<double> v_next(static_cast<std::size_t>(n), 0.0);
  for (auto _ : state) {
    for (mdp::StateId s = 0; s < n; ++s) {
      double acc = v[s];
      for (std::uint32_t a = action_begin[s]; a < action_begin[s + 1]; ++a) {
        double q = reward[a];
        for (std::uint32_t i = tr_begin[a]; i < tr_begin[a + 1]; ++i) {
          q += probs[i] * v[targets[i]];
        }
        acc += q;
      }
      v_next[s] = acc;
    }
    benchmark::DoNotOptimize(v_next.data());
    benchmark::ClobberMemory();
  }
  const std::size_t bytes =
      targets.size() * 20 + reward.size() * 12 + static_cast<std::size_t>(n) *
      20;
  state.counters["bytes_per_sweep"] = static_cast<double>(bytes);
  state.counters["achieved_gbps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(bytes) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SweepStream)->Args({3, 2})->Args({4, 2})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_DensePolicyIteration(benchmark::State& state) {
  // Dense evaluation is O(n³): only the small models are feasible.
  const auto model = selfish::build_model(params_for(1, 1));
  const auto rewards = model.mdp.beta_rewards(0.4);
  for (auto _ : state) {
    const auto result = mdp::dense_policy_iteration(model.mdp, rewards);
    benchmark::DoNotOptimize(result.gain);
  }
}
BENCHMARK(BM_DensePolicyIteration)->Unit(benchmark::kMicrosecond);

void BM_Algorithm1(benchmark::State& state) {
  // Product path: the kernel, at threads = range(2) (0 would mean all
  // cores; explicit counts keep rows comparable across machines).
  const auto model = selfish::build_model(
      params_for(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1))));
  analysis::AnalysisOptions options;
  options.epsilon = 1e-3;
  options.evaluate_exact_errev = false;
  options.solver.threads = static_cast<int>(state.range(2));
  for (auto _ : state) {
    const auto result = analysis::analyze(model, options);
    benchmark::DoNotOptimize(result.beta_lo);
  }
}
BENCHMARK(BM_Algorithm1)
    ->Args({1, 1, 1})->Args({2, 1, 1})->Args({2, 2, 1})
    ->Args({3, 2, 1})->Args({3, 2, 8})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ExactErrevEvaluation(benchmark::State& state) {
  const auto model = selfish::build_model(params_for(2, 2));
  analysis::AnalysisOptions options;
  options.epsilon = 1e-2;
  options.evaluate_exact_errev = false;
  const auto analysis = analysis::analyze(model, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::exact_errev(model, analysis.policy));
  }
}
BENCHMARK(BM_ExactErrevEvaluation)->Unit(benchmark::kMillisecond);

void BM_SingleTreeBaseline(benchmark::State& state) {
  const baselines::SingleTreeParams params{
      .p = 0.3, .gamma = 0.5, .max_depth = 4, .max_width = 5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::analyze_single_tree(params).errev);
  }
}
BENCHMARK(BM_SingleTreeBaseline)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
