// Immutable sparse finite Markov decision process.
//
// Storage is CSR on two levels: states index a contiguous range of
// actions, and each action indexes a contiguous range of transitions.
// A model has two parts:
//  * its structure (MdpStructure): action offsets, action labels,
//    transition offsets, targets (4 B) and finalization counters (4 B
//    per transition). It is checked once, frozen, and shared through a
//    std::shared_ptr<const MdpStructure>, so models that differ only in
//    their probabilities (selfish::render's points of one shape) hold
//    one copy of it;
//  * its numbers, which each Mdp owns: the probabilities (8 B per
//    transition) and the expected counters (16 B per action).
// These arrays are the only copy of the model: mdp::MdpBuilder
// (builder.hpp) appends straight into them, mdp::BellmanKernel sweeps
// them in place, and the reference solvers, the stationary solve, export
// and the binary cache read the same arrays. Structures come from
// MdpBuilder or mdp::load_binary (serialize.hpp); both check them before
// freezing, and every Mdp checks its own probabilities.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "mdp/types.hpp"

namespace mdp {

class Mdp;
class MdpBuilder;

/// The probability-free part of an MDP.
///
/// Invariants (checked whenever a structure is built or loaded):
///  * every state has at least one action;
///  * every action has at least one transition;
///  * all transition targets and the initial state are valid states.
class MdpStructure {
 public:
  StateId num_states() const { return static_cast<StateId>(action_begin_.size() - 1); }
  ActionId num_actions() const { return static_cast<ActionId>(tr_begin_.size() - 1); }
  std::size_t num_transitions() const { return targets_.size(); }

  /// Heap footprint of the arrays.
  std::size_t memory_bytes() const;

 private:
  friend class Mdp;
  friend class MdpBuilder;
  friend void save_binary(const Mdp& m, std::ostream& out);
  friend Mdp load_binary(std::istream& in);
  MdpStructure() = default;

  /// Checks the invariants above on the filled arrays.
  void check() const;

  std::vector<ActionId> action_begin_;      // size: num_states + 1
  std::vector<std::uint32_t> action_label_; // size: num_actions
  std::vector<std::uint32_t> tr_begin_;     // size: num_actions + 1
  std::vector<StateId> targets_;            // size: num_transitions
  std::vector<RewardCounts> counts_;        // size: num_transitions
  StateId initial_ = 0;
};

/// A finite MDP with per-transition finalization counters: a shared
/// MdpStructure plus this model's probabilities, each action's positive
/// and summing to 1 (within 1e-9; checked whenever a model is made).
class Mdp {
 public:
  /// Renders a model on `structure`: `probs` holds one probability per
  /// transition. Every probability must be positive and each action's
  /// must sum to 1 within 1e-9; each is then divided by its action's sum,
  /// removing accumulated rounding, and the expected counters are formed.
  Mdp(std::shared_ptr<const MdpStructure> structure, std::vector<double> probs);

  StateId num_states() const { return structure_->num_states(); }
  ActionId num_actions() const { return structure_->num_actions(); }
  std::size_t num_transitions() const { return structure_->num_transitions(); }
  StateId initial_state() const { return structure_->initial_; }

  /// Global indices of the actions available in `s`: [begin, end).
  ActionId action_begin(StateId s) const { return structure_->action_begin_[s]; }
  ActionId action_end(StateId s) const { return structure_->action_begin_[s + 1]; }
  std::uint32_t num_actions_of(StateId s) const {
    return action_end(s) - action_begin(s);
  }

  /// Model-specific opaque label attached to the action (e.g. an encoded
  /// selfish-mining action); purely for strategy readout.
  std::uint32_t action_label(ActionId a) const { return structure_->action_label_[a]; }

  /// An action's probabilistic successors are the transitions
  /// [transition_begin(a), transition_end(a)), read through target(i),
  /// prob(i) and counts(i).
  std::uint32_t transition_begin(ActionId a) const { return structure_->tr_begin_[a]; }
  std::uint32_t transition_end(ActionId a) const { return structure_->tr_begin_[a + 1]; }
  StateId target(std::uint32_t i) const { return structure_->targets_[i]; }
  double prob(std::uint32_t i) const { return probs_[i]; }
  RewardCounts counts(std::uint32_t i) const { return structure_->counts_[i]; }

  /// The raw CSR arrays, for sweeps that hoist base pointers out of their
  /// loops (mdp::BellmanKernel). action_begins() has num_states + 1
  /// entries and transition_begins() num_actions + 1.
  std::span<const ActionId> action_begins() const { return structure_->action_begin_; }
  std::span<const std::uint32_t> transition_begins() const { return structure_->tr_begin_; }
  std::span<const StateId> targets() const { return structure_->targets_; }
  std::span<const double> probs() const { return probs_; }

  /// The structure this model's probabilities are rendered on.
  const std::shared_ptr<const MdpStructure>& structure() const { return structure_; }

  /// Expected finalized-block counters of an action:
  /// Σ_t prob(t)·counts(t), precomputed at build time.
  double expected_adversary(ActionId a) const { return exp_adv_[a]; }
  double expected_honest(ActionId a) const { return exp_hon_[a]; }

  /// Expected immediate reward of an action under r_β.
  double beta_reward(ActionId a, double beta) const {
    return exp_adv_[a] - beta * (exp_adv_[a] + exp_hon_[a]);
  }

  /// Expected immediate rewards of all actions under r_β, in action order.
  std::vector<double> beta_rewards(double beta) const;

  /// Approximate heap footprint of the structure and this model's
  /// numbers, for state-space reporting.
  std::size_t memory_bytes() const;

 private:
  friend void save_binary(const Mdp& m, std::ostream& out);
  friend Mdp load_binary(std::istream& in);
  Mdp() = default;

  /// Checks that there is one positive probability per transition and
  /// that each action's sum to 1 within 1e-9, then sums
  /// exp_adv_/exp_hon_. With `renormalize`, each action's probabilities
  /// are first divided by their sum, removing accumulated rounding.
  void freeze(bool renormalize);

  std::shared_ptr<const MdpStructure> structure_;
  std::vector<double> probs_;    // size: num_transitions
  std::vector<double> exp_adv_;  // size: num_actions
  std::vector<double> exp_hon_;  // size: num_actions
};

}  // namespace mdp
