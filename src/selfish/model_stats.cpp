#include "selfish/model_stats.hpp"

#include <algorithm>
#include <sstream>

namespace selfish {

ModelStats compute_model_stats(const SelfishModel& model) {
  ModelStats stats;
  const mdp::Mdp& m = model.mdp;
  const AttackParams& params = model.params;

  std::size_t decision_states = 0;
  std::size_t decision_actions = 0;
  for (mdp::StateId s = 0; s < m.num_states(); ++s) {
    const State state = model.space->state_of(s);
    switch (state.type) {
      case StepType::kMining: ++stats.states_mining; break;
      case StepType::kHonestFound: ++stats.states_honest_found; break;
      case StepType::kAdversaryFound: ++stats.states_adversary_found; break;
    }
    const std::size_t actions = m.num_actions_of(s);
    stats.max_actions_per_state = std::max(stats.max_actions_per_state, actions);
    if (state.type != StepType::kMining) {
      ++decision_states;
      decision_actions += actions;
    }
    int withheld = 0;
    for (int i = 0; i < params.d; ++i) {
      for (int j = 0; j < params.f; ++j) withheld += state.c[i][j];
    }
    stats.max_withheld_blocks = std::max(stats.max_withheld_blocks, withheld);
  }
  for (mdp::ActionId a = 0; a < m.num_actions(); ++a) {
    const Action action = model.action_of(a);
    if (action.kind == Action::Kind::kMine) {
      ++stats.mine_actions;
    } else {
      ++stats.release_actions;
    }
  }
  stats.transitions = m.num_transitions();
  if (m.num_actions() > 0) {
    stats.mean_branching =
        static_cast<double>(stats.transitions) / m.num_actions();
  }
  if (decision_states > 0) {
    stats.mean_decision_actions =
        static_cast<double>(decision_actions) / decision_states;
  }
  return stats;
}

std::string ModelStats::to_string() const {
  std::ostringstream os;
  os << "states: " << states_mining << " mining / " << states_honest_found
     << " honest-found / " << states_adversary_found << " adversary-found\n"
     << "actions: " << mine_actions << " mine + " << release_actions
     << " release (max " << max_actions_per_state
     << "/state, mean " << mean_decision_actions << " per decision state)\n"
     << "transitions: " << transitions << " (branching " << mean_branching
     << "), max withheld blocks: " << max_withheld_blocks << '\n';
  return os.str();
}

}  // namespace selfish
