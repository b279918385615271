// Assembles the selfish-mining MDP: reachable states × available actions ×
// transition semantics → an immutable mdp::Mdp ready for the mean-payoff
// solvers of Algorithm 1.
#pragma once

#include "mdp/mdp.hpp"
#include "selfish/actions.hpp"
#include "selfish/params.hpp"
#include "selfish/space.hpp"

namespace selfish {

/// A built model: the MDP plus the state dictionary needed to interpret
/// its states and action labels.
struct SelfishModel {
  AttackParams params;
  StateSpace space;
  mdp::Mdp mdp;

  /// Decodes the action label of a global MDP action id.
  Action action_of(mdp::ActionId a) const {
    return Action::decode(mdp.action_label(a));
  }
};

/// Enumerates all reachable canonical states by BFS and builds the MDP.
/// Complexity is linear in the number of reachable transitions. The build
/// is one `selfish.build` trace span carrying the model's states, actions
/// and transitions.
SelfishModel build_model(const AttackParams& params);

}  // namespace selfish
