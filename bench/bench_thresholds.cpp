// Fairness frontier: the smallest adversarial resource p at which the
// optimal selfish-mining attack beats honest mining, per attack
// configuration and switching probability. This condenses Figure 2's
// "where does each curve leave the diagonal" reading into one table and
// quantifies the paper's tolerance takeaways (e.g. the Eyal–Sirer PoW
// thresholds 1/3 (γ=0) and 1/4 (γ=0.5) vs the much lower multi-fork NaS
// frontiers).
#include <cstdio>
#include <iostream>

#include "analysis/threshold.hpp"
#include "baselines/eyal_sirer.hpp"
#include "bench_common.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

int main(int argc, char** argv) {
  const auto options = bench::standard_options(argc, argv);
  const bool full = options.get_bool("bench-full");
  bench::print_header(
      "Fairness thresholds: smallest p where the attack pays (margin 0.005)",
      full);

  analysis::ThresholdOptions threshold_options;
  // One probe at a time: the whole --threads budget goes to the kernel.
  threshold_options.solver =
      bench::analysis_options(options, /*solver_threads=*/true).solver;
  threshold_options.p_tolerance = full ? 0.0025 : 0.01;

  support::Table table({"Attack", "gamma", "p threshold", "probes",
                        "Time (s)"});
  for (const auto& [d, f] : {std::pair{1, 1}, {2, 1}, {2, 2}}) {
    for (const double gamma : {0.0, 0.5, 1.0}) {
      selfish::AttackParams base{.p = 0.0, .gamma = gamma, .d = d, .f = f, .l = 4};
      const support::Timer timer;
      const auto result =
          analysis::fairness_threshold(base, threshold_options);
      table.add_row(
          {"ours d=" + std::to_string(d) + ",f=" + std::to_string(f),
           support::format_double(gamma, 3),
           result.always_fair
               ? "fair up to " + support::format_double(
                                     analysis::ThresholdOptions::kPMax, 3)
               : support::format_double(result.p_threshold, 4),
           std::to_string(result.probes.size()),
           support::format_double(timer.seconds(), 3)});
      std::fflush(stdout);
    }
  }
  // PoW reference rows (closed-form Eyal–Sirer thresholds).
  for (const double gamma : {0.0, 0.5, 1.0}) {
    table.add_row({"Eyal-Sirer PoW (closed form)",
                   support::format_double(gamma, 3),
                   support::format_double(
                       baselines::eyal_sirer_threshold(gamma), 4),
                   "-", "-"});
  }
  table.print(std::cout);
  std::printf(
      "\nReading guide: multi-fork NaS attacks are profitable at a small "
      "fraction of the\nresource the PoW attack needs; only the degenerate "
      "d=f=1 configuration retains a\nPoW-like frontier (and only for "
      "small gamma).\n");
  return 0;
}
