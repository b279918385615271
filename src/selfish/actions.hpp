// Adversary actions of the selfish-mining MDP (paper §3.2).
//
// `mine` continues proof computation; `release(i, j, k)` publishes the
// first k blocks of the fork in canonical slot j rooted at public depth i.
// Validity (derived in DESIGN.md §3 from explicit chain geometry; the fork
// at depth i competes with the i−1 public blocks above its root):
//
//   type = mining:     only mine.
//   type = adversary:  release needs k ≥ i      (strictly longer, accepted).
//   type = honest:     release needs k ≥ i;     k = i ties against the
//                      pending honest block (race, switch w.p. γ) and
//                      k ≥ i+1 overrides it outright.
//
// Forks in slots of equal length are exchangeable, so only one action per
// distinct (depth, length) pair is enumerated.
//
// The enumeration writes into a caller-owned vector, so the model build's
// BFS reuses one buffer for every state and allocates nothing per state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "selfish/state.hpp"

namespace selfish {

struct Action {
  enum class Kind : std::uint8_t { kMine = 0, kRelease = 1 };

  Kind kind = Kind::kMine;
  int depth = 0;   ///< i, 1-based; meaningful for release only.
  int slot = 0;    ///< j, 0-based canonical slot; release only.
  int length = 0;  ///< k, number of blocks published; release only.

  friend bool operator==(const Action&, const Action&) = default;

  static Action mine() { return Action{}; }
  static Action release(int depth, int slot, int length) {
    return Action{Kind::kRelease, depth, slot, length};
  }

  /// Compact encoding used as the MDP action label.
  std::uint32_t encode() const;
  static Action decode(std::uint32_t code);

  /// "mine" or "release(i=2,j=0,k=3)".
  std::string to_string() const;
};

/// Replaces the contents of `actions` with the actions available in `s`
/// (state must be canonical). `mine` is always first, giving solvers a
/// deterministic tie-break that prefers continued mining.
void available_actions(const State& s, const AttackParams& params,
                       std::vector<Action>& actions);

}  // namespace selfish
