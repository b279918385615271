// Export the built MDP in Storm's explicit-state format (plus Graphviz
// DOT for small models), so the analysis can be independently replayed
// through the model checker the paper itself used:
//
//   ./export_model --d=2 --f=1 --beta=0.41 --prefix=/tmp/selfish
//   storm --explicit /tmp/selfish.tra /tmp/selfish.lab
//         --transrew /tmp/selfish.rew --prop 'R [LRA] max=? [ "init" ]'
//   (one command line; wrapped here for width)
//
// The long-run-average reward Storm reports is MP*_β; Algorithm 1's root
// in β reproduces our certified ERRev bound.
#include <cstdio>
#include <fstream>

#include "analysis/algorithm1.hpp"
#include "mdp/export.hpp"
#include "selfish/build.hpp"
#include "support/check.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) {
  support::Options options;
  options.declare("p", "0.3", "adversary's relative resource");
  options.declare("gamma", "0.5", "tie-race switching probability");
  options.declare("d", "2", "attack depth");
  options.declare("f", "1", "forks per public block");
  options.declare("l", "4", "maximal fork length");
  options.declare("beta", "-1",
                  "beta for the reward export; -1 = use the computed "
                  "ERRev lower bound (the root of MP*_beta)");
  options.declare("prefix", "selfish_model", "output file prefix");
  try {
    options.parse(argc, argv);
  } catch (const support::Error& e) {
    std::fprintf(stderr, "%s\n%s", e.what(),
                 options.usage("export_model").c_str());
    return 1;
  }

  const selfish::AttackParams params{
      .p = options.get_double("p"),
      .gamma = options.get_double("gamma"),
      .d = options.get_int("d"),
      .f = options.get_int("f"),
      .l = options.get_int("l"),
  };
  const auto model = selfish::build_model(params);
  std::printf("built %s: %u states, %zu transitions\n",
              params.to_string().c_str(), model.mdp.num_states(),
              model.mdp.num_transitions());

  double beta = options.get_double("beta");
  if (beta < 0.0) {
    analysis::AnalysisOptions analysis_options;
    analysis_options.epsilon = 1e-4;
    analysis_options.evaluate_exact_errev = false;
    beta = analysis::analyze(model, analysis_options).beta_lo;
    std::printf("computed beta = ERRev lower bound = %.6f "
                "(MP*_beta should be ~0 there)\n", beta);
  }

  const std::string prefix = options.get_string("prefix");
  const auto write = [&](const char* suffix, auto&& writer) {
    const std::string path = prefix + suffix;
    std::ofstream out(path);
    SM_REQUIRE(out.good(), "cannot open ", path);
    writer(out);
    std::printf("wrote %s\n", path.c_str());
  };
  write(".tra", [&](std::ostream& o) { mdp::export_tra(model.mdp, o); });
  write(".lab", [&](std::ostream& o) { mdp::export_lab(model.mdp, o); });
  write(".rew",
        [&](std::ostream& o) { mdp::export_rew(model.mdp, beta, o); });

  if (model.mdp.num_states() <= 500) {
    write(".dot", [&](std::ostream& o) {
      mdp::DotOptions dot;
      dot.labeler = [&](mdp::StateId s) {
        return model.space.state_of(s).to_string(params);
      };
      mdp::export_dot(model.mdp, o, dot);
    });
    std::printf("render with: dot -Tsvg %s.dot -o %s.svg\n", prefix.c_str(),
                prefix.c_str());
  } else {
    std::printf("(model too large for DOT output; skipped)\n");
  }
  return 0;
}
