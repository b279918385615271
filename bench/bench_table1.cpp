// Reproduces Table 1: analysis runtimes per attack configuration at
// γ = 0.5, l = 4, plus the single-tree baseline (f = 5).
//
// The paper reports Storm runtimes (3.8 s … 77761.7 s); absolute numbers
// differ on a native solver, but the shape — roughly an order of magnitude
// per depth increment, driven by the state-space blow-up — must hold.
// Configurations run through the experiment engine (--threads fans them
// out, --cache-dir serves reruns from the store).
#include <cstdio>
#include <iostream>

#include "baselines/single_tree.hpp"
#include "bench_common.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

int main(int argc, char** argv) {
  const auto options = bench::standard_options(argc, argv);
  const bool full = options.get_bool("bench-full");
  bench::print_header("Table 1: analysis runtimes (gamma=0.5, p=0.3, l=4)",
                      full);

  const analysis::AnalysisOptions analysis_options =
      bench::analysis_options(options, /*solver_threads=*/false);

  support::Table table(
      {"Attack Type", "Parameters", "States", "Time (s)", "ERRev"});

  // All configurations go through the engine as one batch: each is an
  // independent job, so --threads runs them concurrently, and with
  // --cache-dir reruns replay the stored results (the reported Time (s)
  // stays the original solve time either way).
  const auto configs = bench::attack_configs(full);
  std::vector<engine::AnalysisJob> jobs;
  for (const auto& [d, f] : configs) {
    engine::AnalysisJob job;
    job.params =
        selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = d, .f = f, .l = 4};
    job.options = analysis_options;
    jobs.push_back(job);
  }
  engine::Engine engine(bench::engine_options(options));
  const auto outcomes = engine.run(jobs);

  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto& result = outcomes[i].result;
    table.add_row({"Our Attack",
                   "d=" + std::to_string(configs[i].first) +
                       ", f=" + std::to_string(configs[i].second),
                   std::to_string(result.num_states),
                   support::format_double(result.seconds, 4),
                   support::format_double(result.errev_of_policy, 5)});
  }

  {
    const baselines::SingleTreeParams params{
        .p = 0.3, .gamma = 0.5, .max_depth = 4, .max_width = 5};
    const support::Timer timer;
    const auto result = baselines::analyze_single_tree(params);
    table.add_row({"Single-tree Selfish Mining", "f=5",
                   std::to_string(result.states_evaluated),
                   support::format_double(timer.seconds(), 4),
                   support::format_double(result.errev, 5)});
  }

  table.print(std::cout);
  return 0;
}
