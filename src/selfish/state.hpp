// The MDP state (C, O, type) of paper §3.2, with canonicalization.
//
// * C[i][j] — length of the j-th private fork rooted on the public block at
//   depth i+1 (0-based i here; depth 1 is the tip). Fork slots within one
//   depth are exchangeable, so states are canonicalized by sorting each row
//   in descending order; this shrinks the reachable state space by up to
//   (f!)^d without affecting values.
// * O — ownership of the public blocks at depths 1..d−1 (bit set ⇒ owned by
//   the adversary). Blocks at depth ≥ d are final: the deepest representable
//   fork (rooted at depth d) can only orphan depths 1..d−1.
// * type — mining: a new proof is being computed; honest: an honest block
//   was found and is *pending* (not yet incorporated — this is the decision
//   point where the adversary may match or override it); adversary: the
//   adversary just extended one of its private forks.
//
// States pack into a uint64 key for hashing and compact storage.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "selfish/params.hpp"

namespace selfish {

enum class StepType : std::uint8_t {
  kMining = 0,
  kHonestFound = 1,
  kAdversaryFound = 2,
};

/// Returns "mining" / "honest" / "adversary".
const char* to_string(StepType type);

struct State {
  /// Fork lengths, row i = public depth i+1; only [0,d)×[0,f) is meaningful.
  std::array<std::array<std::uint8_t, kMaxForks>, kMaxDepth> c{};
  /// Bit i set ⇔ the public block at depth i+1 is adversary-owned
  /// (only bits [0, d−1) are meaningful).
  std::uint8_t owner_bits = 0;
  StepType type = StepType::kMining;

  friend bool operator==(const State&, const State&) = default;

  /// The attack's initial state: no forks, all-honest chain, mining.
  static State initial(const AttackParams& params);

  /// Sorts every fork row in descending order (idempotent).
  void canonicalize(const AttackParams& params);

  /// True iff every row is sorted descending and all cells are ≤ l and
  /// out-of-range cells/bits are zero. `params` must be valid.
  bool is_canonical(const AttackParams& params) const;

  /// Packs into a 64-bit key (requires is_canonical for uniqueness of the
  /// canonical representative, but packs any in-range state faithfully).
  std::uint64_t pack(const AttackParams& params) const;

  /// Inverse of pack.
  static State unpack(std::uint64_t key, const AttackParams& params);

  /// Human-readable rendering, e.g. "C=[[2,0],[1,0]] O=[h] type=mining".
  std::string to_string(const AttackParams& params) const;

  /// Ownership of the public block at depth (1-based) `depth` ≤ d−1.
  bool adversary_owns(int depth) const {
    return (owner_bits >> (depth - 1)) & 1u;
  }
};

}  // namespace selfish
