#include "mdp/builder.hpp"

#include <utility>

#include "support/check.hpp"

namespace mdp {

StateId MdpBuilder::add_state() {
  s_.action_begin_.push_back(static_cast<ActionId>(s_.action_label_.size()));
  return static_cast<StateId>(s_.action_begin_.size() - 1);
}

ActionId MdpBuilder::add_action(std::uint32_t label) {
  SM_REQUIRE(!s_.action_begin_.empty(), "add_state before add_action");
  s_.tr_begin_.push_back(static_cast<std::uint32_t>(s_.targets_.size()));
  s_.action_label_.push_back(label);
  return static_cast<ActionId>(s_.action_label_.size() - 1);
}

std::uint32_t MdpBuilder::add_outcome(StateId target, RewardCounts counts) {
  SM_REQUIRE(!s_.action_begin_.empty() &&
                 s_.action_label_.size() > s_.action_begin_.back(),
             "add_action before add_transition");
  // Merge duplicates produced by canonicalization (several concrete
  // outcomes mapping to the same canonical successor).
  const auto end = static_cast<std::uint32_t>(s_.targets_.size());
  for (std::uint32_t i = s_.tr_begin_.back(); i < end; ++i) {
    if (s_.targets_[i] == target && s_.counts_[i] == counts) return i;
  }
  s_.targets_.push_back(target);
  s_.counts_.push_back(counts);
  return end;
}

void MdpBuilder::add_transition(StateId target, double prob,
                                RewardCounts counts) {
  SM_REQUIRE(prob > 0.0 && prob <= 1.0 + 1e-12,
             "transition probability out of range: ", prob);
  const std::uint32_t i = add_outcome(target, counts);
  if (i == probs_.size()) {
    probs_.push_back(prob);
  } else {
    probs_[i] += prob;
  }
}

std::shared_ptr<const MdpStructure> MdpBuilder::build_structure(
    StateId initial) {
  MdpStructure s = std::exchange(s_, MdpStructure());
  probs_.clear();
  s.action_begin_.push_back(static_cast<ActionId>(s.action_label_.size()));
  s.tr_begin_.push_back(static_cast<std::uint32_t>(s.targets_.size()));
  s.initial_ = initial;
  s.check();
  return std::make_shared<const MdpStructure>(std::move(s));
}

Mdp MdpBuilder::build(StateId initial) {
  std::vector<double> probs = std::exchange(probs_, {});
  return Mdp(build_structure(initial), std::move(probs));
}

}  // namespace mdp
