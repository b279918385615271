// Immutable sparse finite Markov decision process.
//
// Storage is CSR on two levels: states index a contiguous range of
// actions, and each action indexes a contiguous range of transitions.
// The transitions are three parallel arrays — target (4 B), probability
// (8 B) and finalization counters (4 B), 16 B per transition — and they
// are the only copy of the model: mdp::MdpBuilder (builder.hpp) appends
// straight into them, mdp::BellmanKernel sweeps them in place, and the
// reference solvers, the stationary solve, export and the binary cache
// read the same arrays. Models come from MdpBuilder or mdp::load_binary
// (serialize.hpp); both validate the arrays before freezing the model.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "mdp/types.hpp"

namespace mdp {

class MdpBuilder;

/// A finite MDP with per-transition finalization counters.
///
/// Invariants (checked whenever a model is built or loaded):
///  * every state has at least one action;
///  * every action has at least one transition;
///  * each action's transition probabilities are positive and sum to 1
///    (within 1e-9);
///  * all transition targets are valid states.
class Mdp {
 public:
  StateId num_states() const { return static_cast<StateId>(action_begin_.size() - 1); }
  ActionId num_actions() const { return static_cast<ActionId>(tr_begin_.size() - 1); }
  std::size_t num_transitions() const { return targets_.size(); }
  StateId initial_state() const { return initial_; }

  /// Global indices of the actions available in `s`: [begin, end).
  ActionId action_begin(StateId s) const { return action_begin_[s]; }
  ActionId action_end(StateId s) const { return action_begin_[s + 1]; }
  std::uint32_t num_actions_of(StateId s) const {
    return action_end(s) - action_begin(s);
  }

  /// Model-specific opaque label attached to the action (e.g. an encoded
  /// selfish-mining action); purely for strategy readout.
  std::uint32_t action_label(ActionId a) const { return action_label_[a]; }

  /// An action's probabilistic successors are the transitions
  /// [transition_begin(a), transition_end(a)), read through target(i),
  /// prob(i) and counts(i).
  std::uint32_t transition_begin(ActionId a) const { return tr_begin_[a]; }
  std::uint32_t transition_end(ActionId a) const { return tr_begin_[a + 1]; }
  StateId target(std::uint32_t i) const { return targets_[i]; }
  double prob(std::uint32_t i) const { return probs_[i]; }
  RewardCounts counts(std::uint32_t i) const { return counts_[i]; }

  /// The raw CSR arrays, for sweeps that hoist base pointers out of their
  /// loops (mdp::BellmanKernel). action_begins() has num_states + 1
  /// entries and transition_begins() num_actions + 1.
  std::span<const ActionId> action_begins() const { return action_begin_; }
  std::span<const std::uint32_t> transition_begins() const { return tr_begin_; }
  std::span<const StateId> targets() const { return targets_; }
  std::span<const double> probs() const { return probs_; }

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

  /// Approximate heap footprint, for state-space reporting.
  std::size_t memory_bytes() const;

 private:
  friend class MdpBuilder;
  friend void save_binary(const Mdp& m, std::ostream& out);
  friend Mdp load_binary(std::istream& in);
  Mdp() = default;

  /// Checks the invariants above on the filled arrays and sums
  /// exp_adv_/exp_hon_. With `renormalize`, each action's probabilities
  /// are first divided by their sum, removing accumulated rounding.
  void freeze(bool renormalize);

  std::vector<ActionId> action_begin_;      // size: num_states + 1
  std::vector<std::uint32_t> action_label_; // size: num_actions
  std::vector<std::uint32_t> tr_begin_;     // size: num_actions + 1
  std::vector<StateId> targets_;            // size: num_transitions
  std::vector<double> probs_;               // size: num_transitions
  std::vector<RewardCounts> counts_;        // size: num_transitions
  std::vector<double> exp_adv_;             // size: num_actions
  std::vector<double> exp_hon_;             // size: num_actions
  StateId initial_ = 0;
};

}  // namespace mdp
