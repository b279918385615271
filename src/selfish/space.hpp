// Reachable-state-space enumeration for the selfish-mining MDP.
//
// States are enumerated by breadth-first search from the initial state over
// all available actions, in canonical form. Ids are assigned in discovery
// order, so the initial state is id 0 and the enumeration order is stable —
// the model builder relies on this to stream states into the CSR layout.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mdp/types.hpp"
#include "selfish/params.hpp"
#include "selfish/state.hpp"

namespace selfish {

class StateSpace {
 public:
  explicit StateSpace(const AttackParams& params) : params_(params) {
    params_.validate();
  }

  const AttackParams& params() const { return params_; }
  std::size_t size() const { return keys_.size(); }

  /// Id of a canonical state, inserting it if new.
  mdp::StateId intern(const State& s);

  /// Id of a canonical state; throws if unknown.
  mdp::StateId id_of(const State& s) const;

  /// True if the canonical state has been interned.
  bool contains(const State& s) const;

  /// Id of the state whose packed key is `key`, or nullopt when no
  /// interned state packs to it (e.g. a key read from a file).
  std::optional<mdp::StateId> find(std::uint64_t key) const;

  State state_of(mdp::StateId id) const;

 private:
  AttackParams params_;
  std::vector<std::uint64_t> keys_;
  std::unordered_map<std::uint64_t, mdp::StateId> index_;
};

/// Counts the raw (non-canonical) state-space size of §3.2:
/// (l+1)^(d·f) · 2^(d−1) · 3, saturating at 2^63−1. Used for reporting the
/// reduction achieved by reachability + canonicalization.
std::uint64_t raw_state_count(const AttackParams& params);

}  // namespace selfish
