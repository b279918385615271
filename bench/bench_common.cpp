#include "bench_common.hpp"

#include <cstdio>
#include <fstream>

#include "analysis/sweep.hpp"
#include "engine/kinds.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"

namespace bench {

std::vector<std::pair<int, int>> attack_configs(bool full) {
  std::vector<std::pair<int, int>> configs{{1, 1}, {2, 1}, {2, 2}, {3, 2}};
  if (full) configs.emplace_back(4, 2);
  return configs;
}

std::vector<double> gamma_grid() { return {0.0, 0.25, 0.5, 0.75, 1.0}; }

std::vector<double> resource_grid(bool full) {
  return analysis::linspace_grid(0.0, 0.3, full ? 0.01 : 0.05);
}

support::Options standard_options(int argc, const char* const* argv,
                                  const std::string& extra_help) {
  support::Options options;
  options.declare("bench-full", "false",
                  "run the paper's full grids (incl. d=4,f=2); also via "
                  "SELFISH_BENCH_FULL=1" +
                      (extra_help.empty() ? "" : ". " + extra_help));
  engine::declare_options(options, analysis::AnalysisOptions{});
  options.declare("threads", "0",
                  "worker threads for parallel harness stages (0 = all "
                  "cores); also via SELFISH_THREADS");
  options.declare("cache-dir", "",
                  "experiment-engine result store shared by the analysis "
                  "grids (reruns are served from cache); also via "
                  "SELFISH_CACHE_DIR");
  options.declare("store-values", "true",
                  "persist warm-start value vectors in the result store "
                  "(turn off to shrink caches for huge models)");
  options.declare("metrics-out", "",
                  "write a Prometheus text snapshot of the obs registry "
                  "to this file at harness exit; also via "
                  "SELFISH_METRICS_OUT");
  options.declare("trace-out", "",
                  "write obs trace spans (NDJSON, one per span) to this "
                  "file; empty = tracing off");
  options.parse(argc, argv);
  const std::string trace = options.get_string("trace-out");
  if (!trace.empty()) obs::open_trace(trace);
  return options;
}

void write_metrics_snapshot(const support::Options& options) {
  const std::string path = options.get_string("metrics-out");
  if (path.empty()) return;
  std::ofstream out(path);
  SM_REQUIRE(out.good(), "cannot open --metrics-out file ", path);
  out << obs::prometheus_text();
}

engine::EngineOptions engine_options(const support::Options& options) {
  engine::EngineOptions engine_options;
  engine_options.cache_dir = options.get_string("cache-dir");
  engine_options.threads = options.get_int("threads");
  engine_options.store_values = options.get_bool("store-values");
  return engine_options;
}

analysis::AnalysisOptions analysis_options(const support::Options& options,
                                           bool solver_threads) {
  analysis::AnalysisOptions out;
  engine::read_options(options, out);
  // Engine-driven grids keep per-solve threads at 1 (the chains already
  // fan out across --threads); one-solve-at-a-time drivers hand the whole
  // budget to the kernel's Bellman sweeps instead.
  if (solver_threads) out.solver.threads = options.get_int("threads");
  return out;
}

std::vector<engine::AnalysisJob> sweep_grid_jobs(
    const std::vector<SweepSeries>& series, const std::vector<double>& ps,
    const analysis::AnalysisOptions& options) {
  std::vector<engine::AnalysisJob> jobs;
  jobs.reserve(series.size() * ps.size());
  for (const SweepSeries& s : series) {
    for (const double p : ps) {
      engine::AnalysisJob job;
      job.params = selfish::AttackParams{
          .p = p, .gamma = s.gamma, .d = s.d, .f = s.f, .l = 4};
      job.options = options;
      jobs.push_back(job);
    }
  }
  return jobs;
}

int thread_count(const support::Options& options) {
  return support::resolve_thread_count(options.get_int("threads"));
}

void print_header(const std::string& title, bool full) {
  std::printf("== %s ==\n", title.c_str());
  std::printf("scale: %s (use --bench-full or SELFISH_BENCH_FULL=1 for the "
              "paper's full grid)\n\n",
              full ? "FULL (paper grid)" : "default (reduced grid)");
}

}  // namespace bench
