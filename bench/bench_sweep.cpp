// Measures what the experiment engine buys on one γ series — the grid a
// `selfish-mining sweep` runs:
//
//   1 thread    — the series as one engine batch on one worker, store
//                 populated.
//   N threads   — the same batch into a fresh store on --threads workers:
//                 every point is an independent job, so the grid fans out
//                 even though it is a single series.
//   warm store  — the batch again against the populated store: every
//                 point replayed from cache.
//
// The results of all three runs are checked identical before any number
// is reported — the speedup is for the *same* answers.
#include <cstdio>
#include <filesystem>

#include "analysis/sweep.hpp"
#include "bench_common.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

namespace {

/// Runs `jobs` on a fresh engine over `cache_dir`; returns the outcomes
/// and stores the wall-clock time in `seconds`.
std::vector<engine::JobOutcome> timed_run(
    const std::vector<engine::AnalysisJob>& jobs, const std::string& cache_dir,
    int threads, double& seconds) {
  engine::EngineOptions options;
  options.cache_dir = cache_dir;
  options.threads = threads;
  const engine::Engine engine(options);
  const support::Timer timer;
  std::vector<engine::JobOutcome> outcomes = engine.run(jobs);
  seconds = timer.seconds();
  return outcomes;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::standard_options(argc, argv);
  const bool full = options.get_bool("bench-full");
  bench::print_header(
      "Sweep engine: one gamma series at 1 thread vs N threads, and cache "
      "replay", full);

  const analysis::AnalysisOptions analysis_options =
      bench::analysis_options(options, /*solver_threads=*/false);

  // One series, the shape of a `sweep` invocation: d=2,f=2 by default,
  // d=3,f=2 with --bench-full.
  const auto ps = bench::resource_grid(full);
  const std::vector<bench::SweepSeries> series{
      bench::SweepSeries{0.5, full ? 3 : 2, 2}};
  const auto jobs = bench::sweep_grid_jobs(series, ps, analysis_options);
  const int threads = bench::thread_count(options);
  std::printf("grid: gamma=%.2f d=%d f=%d, %zu p-points, %d threads\n\n",
              series[0].gamma, series[0].d, series[0].f, ps.size(), threads);

  // Two fresh stores, under --cache-dir or the temp directory, removed
  // again at exit.
  std::string root = options.get_string("cache-dir");
  if (root.empty()) root = std::filesystem::temp_directory_path().string();
  const std::string serial_dir = root + "/selfish-bench-sweep-1";
  const std::string parallel_dir = root + "/selfish-bench-sweep-n";
  std::filesystem::remove_all(serial_dir);
  std::filesystem::remove_all(parallel_dir);

  double serial_seconds = 0.0, parallel_seconds = 0.0, warm_seconds = 0.0;
  const auto serial = timed_run(jobs, serial_dir, 1, serial_seconds);
  const auto parallel = timed_run(jobs, parallel_dir, threads,
                                  parallel_seconds);
  const auto warm = timed_run(jobs, parallel_dir, threads, warm_seconds);

  // --- the speedup only counts if the answers are the same ones.
  std::size_t warm_hits = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const engine::StoredResult& expect = serial[i].result;
    for (const engine::StoredResult* got :
         {&parallel[i].result, &warm[i].result}) {
      SM_ENSURE(got->beta_lo == expect.beta_lo &&
                    got->errev_of_policy == expect.errev_of_policy &&
                    got->solver_iterations == expect.solver_iterations &&
                    got->policy == expect.policy,
                "engine results diverged at p=", ps[i]);
    }
    warm_hits += warm[i].cached ? 1 : 0;
  }
  std::printf("engine cold ( 1 thread):  %8.3f s\n", serial_seconds);
  std::printf("engine cold (%2d threads): %8.3f s   -> %.2fx speedup\n",
              threads, parallel_seconds, serial_seconds / parallel_seconds);
  std::printf("engine warm (cache hits): %8.3f s   -> %.2fx speedup "
              "(%zu/%zu points replayed)\n",
              warm_seconds, serial_seconds / warm_seconds, warm_hits,
              warm.size());
  std::printf("\nresults verified identical across all three runs\n");

  bench::write_metrics_snapshot(options);
  std::filesystem::remove_all(serial_dir);
  std::filesystem::remove_all(parallel_dir);
  return 0;
}
