// Strategy explorer: print the ε-optimal selfish-mining strategy in
// human-readable form — which states withhold, which release, and how the
// decision differs from the classic Bitcoin attack.
//
//   ./strategy_explorer [--p=0.3] [--gamma=0.5] [--d=2] [--f=1]
//                       [--max-rows=40]
#include <algorithm>
#include <cstdio>

#include "analysis/algorithm1.hpp"
#include "analysis/policy_stats.hpp"
#include "selfish/build.hpp"
#include "support/check.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) {
  support::Options options;
  options.declare("p", "0.3", "adversary's relative resource");
  options.declare("gamma", "0.5", "tie-race switching probability");
  options.declare("d", "2", "attack depth");
  options.declare("f", "1", "forks per public block");
  options.declare("max-rows", "40", "how many decision states to print");
  try {
    options.parse(argc, argv);
  } catch (const support::Error& e) {
    std::fprintf(stderr, "%s\n%s", e.what(),
                 options.usage("strategy_explorer").c_str());
    return 1;
  }

  const selfish::AttackParams params{
      .p = options.get_double("p"),
      .gamma = options.get_double("gamma"),
      .d = options.get_int("d"),
      .f = options.get_int("f"),
      .l = 4,
  };
  const auto model = selfish::build_model(params);
  analysis::AnalysisOptions analysis_options;
  analysis_options.epsilon = 1e-4;
  const auto result = analysis::analyze(model, analysis_options);

  std::printf("Optimal strategy for %s — ERRev %.5f\n\n",
              params.to_string().c_str(), result.errev_of_policy);

  // Only show decision states the strategy actually visits (stationary
  // probability > 0 under the computed policy), most frequent first. The
  // analysis already solved that chain for the ERRev above.
  const std::vector<double>& stationary = result.stationary.distribution;
  std::vector<mdp::StateId> order(model.mdp.num_states());
  for (mdp::StateId s = 0; s < model.mdp.num_states(); ++s) order[s] = s;
  std::sort(order.begin(), order.end(), [&](mdp::StateId a, mdp::StateId b) {
    return stationary[a] > stationary[b];
  });

  std::printf("%-44s %-10s %-22s\n", "state (C, O, type)", "visit %",
              "chosen action");
  int rows = 0;
  const int max_rows = options.get_int("max-rows");
  for (const mdp::StateId s : order) {
    const auto state = model.space->state_of(s);
    if (state.type == selfish::StepType::kMining) continue;  // forced mine
    if (stationary[s] < 1e-9) continue;
    const auto action = model.action_of(result.policy[s]);
    std::printf("%-44s %-10.4f %-22s\n",
                state.to_string(params).c_str(),
                100.0 * stationary[s],
                action.to_string().c_str());
    if (++rows >= max_rows) break;
  }
  std::printf("\n(%d of the model's decision states shown; states the "
              "optimal play never\nreaches are omitted. 'mine' at a "
              "type=honest state means: accept the pending\nhonest block; "
              "a release at such a state races or overrides it.)\n", rows);

  const auto stats =
      analysis::compute_policy_stats(model, result.policy, stationary);
  std::printf("\nAggregate behavior:\n%s", stats.to_string().c_str());
  return 0;
}
