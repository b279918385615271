// Workload `sweep-chain`: one engine::Engine::run over two warm-start
// chains — d=4,f=1,l=4 at γ=0.25 and γ=0.75 on the p-grid 0.10, 0.15,
// 0.20, shifted by a seeded offset — with store_values=true and 2 chain
// threads, about 2 s a batch. The seed draws kOffsets offsets and the
// batches cycle through them, so every seed runs the same mix of work
// (iteration counts jump between neighbouring p; see analyze-cold).
//
// Same kernel and bisection as analyze-cold, but each point is seeded by
// its left neighbour's values, and the engine's planning, parallel chains
// and store writes (≈120 KB of values per point) run as well. Before each
// batch the set-up runs again, timed on its own: a fresh store directory
// and a warm-up engine batch into it, which the timed batch then writes
// next to. Both run on the one quietest CPU and are corrected to nominal
// host speed (time_on_quiet_cpus); batch_s is the median batch. On two
// CPUs the batch waited for the slower of two chains on CPUs whose speeds
// move apart, and corrected medians still spread 10-18% over ten seeds;
// the chain threads now share one CPU, which still runs the engine's
// parallel-chain path but no longer measures its speed-up.
#include <filesystem>
#include <cmath>
#include <string>
#include <vector>

#include "bench.hpp"
#include "engine/engine.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr double kEpsilon = 1e-3;
constexpr double kMaxOffset = 0.01;
constexpr int kChainThreads = 2;
/// Odd, so the untraced (even) batches of a traced run visit every one.
constexpr std::size_t kOffsets = 5;
constexpr double kGammas[] = {0.25, 0.75};
/// tests/test_golden_values.cpp pins d=2,f=2,l=4,γ=0.5,p=0.3 at 0.43927.
constexpr double kWarmUpGolden = 0.43927;

std::vector<engine::AnalysisJob> make_jobs(double offset) {
  std::vector<engine::AnalysisJob> jobs;
  for (const double gamma : kGammas) {
    for (const double grid : {0.10, 0.15, 0.20}) {
      const double p = std::round((grid + offset) * 1e4) / 1e4;
      engine::AnalysisJob job;
      job.params = {.p = p, .gamma = gamma, .d = 4, .f = 1, .l = 4};
      job.options = pinned_analysis_options();
      job.options.epsilon = kEpsilon;
      jobs.push_back(job);
    }
  }
  return jobs;
}

engine::EngineOptions engine_options(const std::string& dir) {
  engine::EngineOptions options;
  options.cache_dir = dir;
  options.threads = kChainThreads;
  options.store_values = true;
  return options;
}

/// Gates every outcome of one batch (jobs ordered chain by chain, p
/// ascending); each point failing any check counts as a failed operation.
void check_outcomes(const std::vector<engine::AnalysisJob>& jobs,
                    const std::vector<engine::JobOutcome>& outcomes,
                    Result& out) {
  out.attempted(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const selfish::AttackParams& params = jobs[i].params;
    const engine::StoredResult& r = outcomes[i].result;
    const std::string at = " at " + params.to_string();
    bool ok = out.check(!outcomes[i].cached,
                        "fresh store solves every point" + at);
    ok &= out.check(r.beta_hi - r.beta_lo < kEpsilon,
                    "bracket narrower than epsilon" + at);
    ok &= out.check(r.beta_hi >= params.p, "beta_hi >= p" + at);
    ok &= out.check(r.errev_of_policy >= r.beta_lo - kEpsilon &&
                        r.errev_of_policy <= r.beta_hi + kSolverSlack,
                    "strategy ERRev inside [beta_lo - eps, beta_hi]" + at);
    const bool same_chain =
        i > 0 && jobs[i - 1].params.gamma == params.gamma;
    if (same_chain) {
      ok &= out.check(
          r.errev_of_policy > outcomes[i - 1].result.errev_of_policy,
          "ERRev rises with p along the chain" + at);
    }
    if (!ok) out.failed(1);
  }
}

/// The set-up: a warm-up engine batch through the same path (a d=2,f=2
/// chain at γ=0.5) into the fresh store `dir`, gated against the golden
/// ERRev of its p=0.3 point. Returns its timing, the gate excluded.
Timing set_up(const std::string& dir, Result& out) {
  std::vector<engine::AnalysisJob> warm;
  for (const double p : {0.1, 0.15, 0.2, 0.25, 0.3}) {
    engine::AnalysisJob job;
    job.params = {.p = p, .gamma = 0.5, .d = 2, .f = 2, .l = 4};
    job.options = pinned_analysis_options();
    job.options.epsilon = kEpsilon;
    warm.push_back(job);
  }
  std::vector<engine::JobOutcome> outcomes;
  const Timing timing = time_on_quiet_cpus(1, [&] {
    const engine::Engine engine(engine_options(dir));
    outcomes = engine.run(warm);
  });
  check_outcomes(warm, outcomes, out);
  if (!out.check(
          std::fabs(outcomes.back().result.errev_of_policy - kWarmUpGolden) <
              kEpsilon,
          "warm-up d=2,f=2,p=0.3 within eps of golden 0.43927")) {
    out.failed(1);
  }
  return timing;
}

}  // namespace

void run_sweep_chain(const Config& config, Tracer& tracer, Result& result) {
  support::Rng rng(config.seed);
  std::vector<std::vector<engine::AnalysisJob>> job_sets;
  for (std::size_t k = 0; k < kOffsets; ++k) {
    job_sets.push_back(
        make_jobs((2.0 * rng.next_double() - 1.0) * kMaxOffset));
  }
  int dir_serial = 0;
  const auto fresh_dir = [&] {
    const fs::path dir =
        fs::path(config.work_dir) / ("store-" + std::to_string(dir_serial++));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
  };

  std::vector<double> setups, setups_nominal, untraced_batches, traced_batches;
  std::vector<double> batches_nominal, probe_us;
  Counts counts;
  double run_s = 0, search_steps = 0, solver_iterations = 0;
  const double started = now_s();
  double longest = 0.0;
  int batches = 0;
  while (another_batch(config, started, batches, longest)) {
    const double s0 = now_s();
    const std::string dir = fresh_dir();
    const Timing setup = set_up(dir, result);
    setups.push_back(setup.wall_s);
    setups_nominal.push_back(setup.nominal_s);
    const std::vector<engine::AnalysisJob>& jobs =
        job_sets[static_cast<std::size_t>(batches) % job_sets.size()];
    const bool traced = tracer.enabled() && batches % 2 == 1;
    Tracer off(false);
    Tracer& t = traced ? tracer : off;
    const Counts before = read_counts();
    std::vector<engine::JobOutcome> outcomes;
    Counts delta;
    int batch_id = -1;
    const Timing timing = time_on_quiet_cpus(1, [&] {
      Span batch(t, "sweep-chain.batch", "bench");
      batch_id = batch.id();
      const engine::Engine engine(engine_options(dir));
      Span run(t, "Engine::run", "engine", batch.id());
      outcomes = engine.run(jobs);
      delta = read_counts().minus(before);
      // The kChainThreads chain threads time-share one CPU, so a sweep's
      // wall time is about kChainThreads times its CPU time; divided back,
      // the busy time is the wall-clock share of the run the kernel takes.
      run.split("mdp", delta.sweep_busy_s() / kChainThreads);
    });
    (traced ? traced_batches : untraced_batches).push_back(timing.wall_s);
    if (!traced) batches_nominal.push_back(timing.nominal_s);
    probe_us.push_back(timing.probe_s * 1e6);
    longest = std::max(longest, now_s() - s0);
    ++batches;

    check_outcomes(jobs, outcomes, result);
    if (traced) {
      counts.add(delta);
      for (const SpanRecord& span : tracer.spans()) {
        if (span.name == "Engine::run" && span.parent == batch_id) {
          run_s += span.end - span.start;
        }
      }
      for (const engine::JobOutcome& outcome : outcomes) {
        search_steps += outcome.result.search_iterations;
        solver_iterations +=
            static_cast<double>(outcome.result.solver_iterations);
      }
    }
    fs::remove_all(dir);
  }

  note_batches(result, setups, untraced_batches, traced_batches);
  note_samples(result, "batches_nominal_s", batches_nominal);
  report_host(result, untraced_batches, probe_us, setups, setups_nominal);
  if (!tracer.enabled()) {
    result.metric("batch_s", median(batches_nominal), "s");
    result.note("sweep_s", serve::Json(median(batches_nominal)));
    return;
  }

  const double n = static_cast<double>(traced_batches.size());
  report_registry_layers(counts, result);
  // Per-batch figures: sums over the traced batches / their number.
  const auto per_batch = [&](const char* metric, const char* series,
                             const char* unit) {
    result.metric(metric, counts.get(series) / n, unit);
  };
  per_batch("mdp.solves", "selfish_mdp_solves_total", "count");
  per_batch("mdp.sweeps", "selfish_mdp_sweeps_total", "count");
  per_batch("engine.jobs_planned", "selfish_engine_jobs_planned_total",
            "count");
  per_batch("engine.executed", "selfish_engine_executed_total", "count");
  per_batch("engine.cache_hits", "selfish_engine_cache_hits_total", "count");
  per_batch("engine.store_written_bytes",
            "selfish_engine_store_written_bytes_total", "bytes");
  per_batch("engine.store_read_bytes", "selfish_engine_store_read_bytes_total",
            "bytes");
  result.metric("mdp.sweep_busy_s", counts.sweep_busy_s() / n, "s");
  result.metric("engine.run_s", run_s / n, "s");
  result.metric("analysis.search_steps", search_steps / n, "count");
  result.metric("analysis.solver_iterations", solver_iterations / n, "count");
  result.metric("bench.batches", n, "count");
  result.metric("bench.trace_overhead_pct",
                (median(traced_batches) / median(untraced_batches) - 1.0) *
                    100.0,
                "%");
}

}  // namespace perfbench
