#include "mdp/mdp.hpp"

#include <cmath>

#include "support/check.hpp"

namespace mdp {

std::vector<double> Mdp::beta_rewards(double beta) const {
  std::vector<double> r(num_actions());
  for (ActionId a = 0; a < num_actions(); ++a) r[a] = beta_reward(a, beta);
  return r;
}

std::size_t Mdp::memory_bytes() const {
  return action_begin_.capacity() * sizeof(ActionId) +
         action_label_.capacity() * sizeof(std::uint32_t) +
         tr_begin_.capacity() * sizeof(std::uint32_t) +
         targets_.capacity() * sizeof(StateId) +
         probs_.capacity() * sizeof(double) +
         counts_.capacity() * sizeof(RewardCounts) +
         exp_adv_.capacity() * sizeof(double) +
         exp_hon_.capacity() * sizeof(double);
}

void Mdp::freeze(bool renormalize) {
  SM_REQUIRE(action_begin_.size() > 1, "cannot build an empty MDP");
  const StateId n = num_states();
  SM_REQUIRE(initial_ < n, "initial state ", initial_, " out of range ", n);
  SM_REQUIRE(action_begin_.front() == 0 &&
                 action_label_.size() == action_begin_.back() &&
                 tr_begin_.size() == action_label_.size() + 1 &&
                 tr_begin_.front() == 0 &&
                 tr_begin_.back() == targets_.size() &&
                 probs_.size() == targets_.size() &&
                 counts_.size() == targets_.size(),
             "inconsistent MDP arrays");

  exp_adv_.assign(num_actions(), 0.0);
  exp_hon_.assign(num_actions(), 0.0);
  for (StateId s = 0; s < n; ++s) {
    SM_REQUIRE(action_begin(s) < action_end(s) &&
                   action_end(s) <= num_actions(),
               "state ", s, " has no actions");
    for (ActionId a = action_begin(s); a < action_end(s); ++a) {
      const std::uint32_t begin = transition_begin(a);
      const std::uint32_t end = transition_end(a);
      SM_REQUIRE(begin < end && end <= targets_.size(), "an action of state ",
                 s, " has no transitions");
      double total = 0.0;
      for (std::uint32_t i = begin; i < end; ++i) {
        SM_REQUIRE(targets_[i] < n, "transition target ", targets_[i],
                   " out of range ", n);
        SM_REQUIRE(probs_[i] > 0.0, "transition probability out of range: ",
                   probs_[i]);
        total += probs_[i];
      }
      SM_REQUIRE(std::fabs(total - 1.0) <= 1e-9,
                 "action probabilities of state ", s, " sum to ", total);
      for (std::uint32_t i = begin; i < end; ++i) {
        if (renormalize) probs_[i] /= total;  // exact renormalization
        exp_adv_[a] += probs_[i] * counts_[i].adversary;
        exp_hon_[a] += probs_[i] * counts_[i].honest;
      }
    }
  }
}

}  // namespace mdp
