// Incremental construction of mdp::Mdp models and of bare structures.
//
// States are added in increasing id order (matching the BFS enumeration the
// selfish-mining state space produces); actions and transitions are appended
// to the most recently opened state/action, straight into the arrays of the
// MdpStructure under construction — there is no staging copy. A transition
// may target a state that is not added yet. An outcome equal to one the open
// action already has (the same target and counters) merges into it.
//
// A builder finishes one of two ways:
//  * add_transition(target, prob, counts) sums each transition's merged
//    probabilities, and build() checks the structure and renders the Mdp
//    on it (a model with its probabilities fixed);
//  * add_outcome(target, counts) records only where each outcome went,
//    and the caller keeps its own weights per transition index (selfish
//    shapes keep lists of probability terms); build_structure() checks and
//    freezes the structure, to be shared by every Mdp rendered on it.
#pragma once

#include <memory>
#include <vector>

#include "mdp/mdp.hpp"
#include "mdp/types.hpp"

namespace mdp {

class MdpBuilder {
 public:
  /// Opens the next state; returns its id (sequential from 0).
  StateId add_state();

  /// Opens an action on the most recently added state. `label` is an
  /// opaque model-specific code stored for strategy readout.
  ActionId add_action(std::uint32_t label = 0);

  /// Appends the outcome (target, counts) to the most recently added
  /// action, or finds the equal one already there; returns its transition
  /// index. A new transition's index is the number of transitions before
  /// it.
  std::uint32_t add_outcome(StateId target, RewardCounts counts = {});

  /// add_outcome, adding `prob` to the transition's probability.
  void add_transition(StateId target, double prob, RewardCounts counts = {});

  /// Checks and freezes the structure:
  ///  * `initial` must be a valid state;
  ///  * every state needs ≥ 1 action, every action ≥ 1 transition.
  /// The builder is left empty afterwards.
  std::shared_ptr<const MdpStructure> build_structure(StateId initial);

  /// build_structure, then renders the summed probabilities of
  /// add_transition on it: per-action probabilities must sum to 1 within
  /// 1e-9 (rows are then renormalized exactly to remove accumulated
  /// rounding).
  Mdp build(StateId initial);

 private:
  // The structure under construction. Its two offset ladders lack their
  // closing entries until build_structure() appends them, so the open
  // state's actions start at action_begin_.back() and the open action's
  // transitions at tr_begin_.back().
  MdpStructure s_;
  std::vector<double> probs_;  // add_transition's sums, per transition
};

}  // namespace mdp
