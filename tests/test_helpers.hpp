// Shared fixtures: small hand-checkable MDPs and random-model generators
// used across the solver test files, the selfish-mining enumeration in
// by-value form, and fingerprints of built models.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "mdp/builder.hpp"
#include "mdp/mdp.hpp"
#include "selfish/actions.hpp"
#include "selfish/build.hpp"
#include "selfish/transitions.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace test_helpers {

/// A two-state, purely deterministic cycle:
///   s0 --a--> s1 (adversary count 1), s1 --a--> s0 (honest count 1).
/// Gain of the only policy under reward (adv − β(adv+hon)) is 1/2 − β.
inline mdp::Mdp two_state_cycle() {
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action();
  b.add_transition(1, 1.0, {1, 0});
  b.add_state();
  b.add_action();
  b.add_transition(0, 1.0, {0, 1});
  return b.build(0);
}

/// The textbook two-action chain:
///   s0: action "stay" self-loops with reward counts (1,1) — gain 0 for
///       β = 1/2; action "go" moves to s1 with counts (1,0);
///   s1: single action back to s0 with counts (1,0).
/// Optimal mean payoff under reward = adv − β·(adv+hon):
///   stay forever:    1 − 2β
///   cycle s0<->s1:   1 − β
/// so "go" is optimal for all β > 0.
inline mdp::Mdp two_action_choice() {
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action(/*label=*/0);  // stay
  b.add_transition(0, 1.0, {1, 1});
  b.add_action(/*label=*/1);  // go
  b.add_transition(1, 1.0, {1, 0});
  b.add_state();
  b.add_action(/*label=*/2);
  b.add_transition(0, 1.0, {1, 0});
  return b.build(0);
}

/// A random communicating MDP: every action has a positive-probability
/// edge back to state 0, making every policy unichain, and the first edge
/// of each state's first action leads to the next state, so state 0
/// reaches every state.
inline mdp::Mdp random_unichain(support::Rng& rng, int num_states,
                                int max_actions, int max_branch) {
  mdp::MdpBuilder b;
  for (int s = 0; s < num_states; ++s) {
    b.add_state();
    const int actions = 1 + static_cast<int>(rng.next_below(max_actions));
    for (int a = 0; a < actions; ++a) {
      b.add_action();
      const int branch = 1 + static_cast<int>(rng.next_below(max_branch));
      std::vector<double> weights(branch + 1);
      for (double& w : weights) w = 0.05 + rng.next_double();
      double total = 0.0;
      for (double w : weights) total += w;
      // Last edge always returns to state 0 → unichain under any policy.
      for (int e = 0; e <= branch; ++e) {
        auto target = static_cast<mdp::StateId>(
            e == branch ? 0 : rng.next_below(num_states));
        if (a == 0 && e == 0 && s + 1 < num_states) {
          target = static_cast<mdp::StateId>(s + 1);
        }
        const mdp::RewardCounts counts{
            static_cast<std::uint16_t>(rng.next_below(3)),
            static_cast<std::uint16_t>(rng.next_below(3))};
        b.add_transition(target, weights[e] / total, counts);
      }
    }
  }
  return b.build(0);
}

/// `m` with a single-action, zero-reward mining step in front of every
/// state, the shape of §3.2's model: state s of `m` becomes decision state
/// 2s+1, its mining step is state 2s, and every edge s -> t of `m` now
/// leads to 2t. The result is 2-periodic and starts at the mining step of
/// m's initial state, so mdp::BellmanKernel and the reference
/// value_iteration accept it whenever every state of `m` is reachable, and
/// under every policy its gain per step is half of m's.
inline mdp::Mdp with_mining_steps(const mdp::Mdp& m) {
  mdp::MdpBuilder b;
  for (mdp::StateId s = 0; s < m.num_states(); ++s) {
    b.add_state();
    b.add_action();
    b.add_transition(2 * s + 1, 1.0);
    b.add_state();
    for (mdp::ActionId a = m.action_begin(s); a < m.action_end(s); ++a) {
      b.add_action(m.action_label(a));
      for (std::uint32_t i = m.transition_begin(a); i < m.transition_end(a);
           ++i) {
        b.add_transition(2 * m.target(i), m.prob(i), m.counts(i));
      }
    }
  }
  return b.build(2 * m.initial_state());
}

/// FNV-1a fingerprint of every number a model holds, chained in id
/// order: state and initial-state ids, the action ladder, then per
/// action its label, the bit patterns of its expected counters and its
/// transition count, followed by each of its transitions' target,
/// probability bits and counters. Equal hashes mean bit-identical models.
inline std::uint64_t model_hash(const mdp::Mdp& m) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](auto value) {
    hash = support::fnv1a64(&value, sizeof value, hash);
  };
  mix(m.num_states());
  mix(m.initial_state());
  for (mdp::StateId s = 0; s < m.num_states(); ++s) mix(m.action_begin(s));
  mix(m.num_actions());
  for (mdp::ActionId a = 0; a < m.num_actions(); ++a) {
    mix(m.action_label(a));
    mix(std::bit_cast<std::uint64_t>(m.expected_adversary(a)));
    mix(std::bit_cast<std::uint64_t>(m.expected_honest(a)));
    mix(m.transition_end(a) - m.transition_begin(a));
    for (std::uint32_t i = m.transition_begin(a); i < m.transition_end(a);
         ++i) {
      mix(m.target(i));
      mix(std::bit_cast<std::uint64_t>(m.prob(i)));
      mix(m.counts(i).adversary);
      mix(m.counts(i).honest);
    }
  }
  return hash;
}

/// FNV-1a fingerprint of a model's state dictionary: the packed keys in
/// id order. Equal hashes mean the same states under the same ids.
inline std::uint64_t state_keys_hash(const selfish::SelfishModel& model) {
  const selfish::StateSpace& space = *model.space;
  std::uint64_t hash = support::kFnv1aBasis;
  for (mdp::StateId s = 0; s < space.size(); ++s) {
    const std::uint64_t key = space.state_of(s).pack(model.params);
    hash = support::fnv1a64(&key, sizeof key, hash);
  }
  return hash;
}

/// The actions available in `s`, through the scratch form the model
/// build uses.
inline std::vector<selfish::Action> actions_of(
    const selfish::State& s, const selfish::AttackParams& params) {
  std::vector<selfish::Action> actions;
  selfish::available_actions(s, params, actions);
  return actions;
}

/// The outcomes of `action` in `s`, through the scratch form the model
/// build uses.
inline std::vector<selfish::Outcome> outcomes_of(
    const selfish::State& s, const selfish::Action& action,
    const selfish::AttackParams& params) {
  selfish::Outcomes outcomes;
  selfish::apply_action(s, action, params, outcomes);
  return {outcomes.begin(), outcomes.end()};
}

}  // namespace test_helpers
