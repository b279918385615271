// Incremental construction of mdp::Mdp models.
//
// States are added in increasing id order (matching the BFS enumeration the
// selfish-mining state space produces); actions and transitions are appended
// to the most recently opened state/action, straight into the CSR arrays of
// the Mdp under construction — there is no staging copy. A transition may
// target a state that is not added yet; build() validates the whole model,
// renormalizes each action's row in place and produces the immutable Mdp.
#pragma once

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

  /// Appends a probabilistic outcome to the most recently added action.
  /// Duplicate targets with identical reward counts are merged.
  void add_transition(StateId target, double prob, RewardCounts counts = {});

  /// Validates and freezes the model:
  ///  * `initial` must be a valid state;
  ///  * every state needs ≥ 1 action, every action ≥ 1 transition;
  ///  * per-action probabilities must sum to 1 within 1e-9 (rows are then
  ///    renormalized exactly to remove accumulated rounding).
  /// The builder is left empty afterwards.
  Mdp build(StateId initial);

 private:
  // The model under construction. Its two offset ladders lack their
  // closing entries until build() appends them, so the open state's
  // actions start at action_begin_.back() and the open action's
  // transitions at tr_begin_.back().
  Mdp m_;
};

}  // namespace mdp
