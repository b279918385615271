// Reachable-state-space enumeration for the selfish-mining MDP.
//
// States are enumerated by breadth-first search from the initial state over
// all available actions, in canonical form. Ids are assigned in discovery
// order, so the initial state is id 0 and the enumeration order is stable —
// the model builder relies on this to stream states into the CSR layout.
//
// Interning goes through an open-addressing table over the packed u64 key:
// linear probing, a power-of-two slot count starting at 16 and doubling
// before the load would pass ½, and 4-byte slots that each hold an id into
// the key list. An empty slot is marked by its id, not by a key, because
// the initial state packs to key 0. intern, find, id_of and contains all
// run the same probe, and none allocates except when the table or the key
// list grows.
//
// A dictionary depends on d, f and l alone and records no (p, γ): every
// model rendered from one shape shares the shape's dictionary
// (selfish/build.hpp), and a model's point lives in its params.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mdp/types.hpp"
#include "selfish/params.hpp"
#include "selfish/state.hpp"

namespace selfish {

class StateSpace {
 public:
  /// An empty dictionary of the states of `params`'s d, f and l.
  explicit StateSpace(const AttackParams& params);

  std::size_t size() const { return keys_.size(); }

  /// Id of a canonical state, inserting it if new; throws on a state that
  /// is not canonical.
  mdp::StateId intern(const State& s);

  /// intern for a state that is canonical by construction (a successor
  /// from apply_action, or State::initial): debug builds alone re-check.
  mdp::StateId intern_canonical(const State& s);

  /// Id of a canonical state; throws if unknown.
  mdp::StateId id_of(const State& s) const;

  /// True if the canonical state has been interned.
  bool contains(const State& s) const;

  /// Id of the state whose packed key is `key`, or nullopt when no
  /// interned state packs to it (e.g. a key read from a file).
  std::optional<mdp::StateId> find(std::uint64_t key) const;

  State state_of(mdp::StateId id) const;

 private:
  /// The slot holding `key`'s id, or the empty slot where the probe for
  /// `key` ends.
  std::size_t probe(std::uint64_t key) const;

  /// Doubles the slot count and re-inserts every id.
  void grow();

  AttackParams params_;  ///< Packs and unpacks keys: d, f and l alone.
  std::vector<std::uint64_t> keys_;  ///< Packed keys in id order.
  std::vector<mdp::StateId> slots_;  ///< Ids into keys_, or kEmptySlot.
};

/// Counts the raw (non-canonical) state-space size of §3.2:
/// (l+1)^(d·f) · 2^(d−1) · 3, saturating at 2^63−1. Used for reporting the
/// reduction achieved by reachability + canonicalization.
std::uint64_t raw_state_count(const AttackParams& params);

}  // namespace selfish
