#include "mdp/builder.hpp"

#include <utility>

#include "support/check.hpp"

namespace mdp {

StateId MdpBuilder::add_state() {
  m_.action_begin_.push_back(static_cast<ActionId>(m_.action_label_.size()));
  return static_cast<StateId>(m_.action_begin_.size() - 1);
}

ActionId MdpBuilder::add_action(std::uint32_t label) {
  SM_REQUIRE(!m_.action_begin_.empty(), "add_state before add_action");
  m_.tr_begin_.push_back(static_cast<std::uint32_t>(m_.targets_.size()));
  m_.action_label_.push_back(label);
  return static_cast<ActionId>(m_.action_label_.size() - 1);
}

void MdpBuilder::add_transition(StateId target, double prob,
                                RewardCounts counts) {
  SM_REQUIRE(!m_.action_begin_.empty() &&
                 m_.action_label_.size() > m_.action_begin_.back(),
             "add_action before add_transition");
  SM_REQUIRE(prob > 0.0 && prob <= 1.0 + 1e-12,
             "transition probability out of range: ", prob);
  // Merge duplicates produced by canonicalization (several concrete
  // outcomes mapping to the same canonical successor).
  for (std::size_t i = m_.tr_begin_.back(); i < m_.targets_.size(); ++i) {
    if (m_.targets_[i] == target && m_.counts_[i] == counts) {
      m_.probs_[i] += prob;
      return;
    }
  }
  m_.targets_.push_back(target);
  m_.probs_.push_back(prob);
  m_.counts_.push_back(counts);
}

Mdp MdpBuilder::build(StateId initial) {
  Mdp m = std::exchange(m_, Mdp());
  m.action_begin_.push_back(static_cast<ActionId>(m.action_label_.size()));
  m.tr_begin_.push_back(static_cast<std::uint32_t>(m.targets_.size()));
  m.initial_ = initial;
  m.freeze(/*renormalize=*/true);
  return m;
}

}  // namespace mdp
