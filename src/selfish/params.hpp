// Parameters of the selfish-mining attack MDP (paper §3.2).
#pragma once

#include <cstdint>
#include <string>

namespace selfish {

/// Compile-time bounds of the state representation. The packed state must
/// fit 64 bits: d·f·bit_width(l) fork-length bits + (d−1) ownership bits +
/// 2 type bits (checked by AttackParams::validate).
inline constexpr int kMaxDepth = 8;   ///< Upper bound on d.
inline constexpr int kMaxForks = 6;   ///< Upper bound on f.
inline constexpr int kMaxForkLength = 15;  ///< Upper bound on l.

/// The five model parameters (p, γ, d, f, l) of §3.2.
struct AttackParams {
  double p = 0.3;      ///< Adversary's relative resource, in [0, 1].
  double gamma = 0.5;  ///< Tie-race switching probability, in [0, 1].
  int d = 2;           ///< Attack depth: forks on the last d public blocks.
  int f = 1;           ///< Forking number: private forks per public block.
  int l = 4;           ///< Maximal private fork length (finiteness bound).

  /// Fork-choice ablation (paper takeaway 3 asks for analysis of the tie
  /// breaking rule): when true, a fork that loses a tie race is *burned* —
  /// honest miners have already seen and rejected it, so it cannot be
  /// grown and re-raced later. The paper's model (false) lets the losing
  /// fork survive one depth deeper.
  bool burn_lost_races = false;

  /// Throws support::InvalidArgument when any parameter is out of range or
  /// the configuration does not fit the packed-state representation.
  void validate() const;

  /// Bits needed per fork-length cell: bit_width(l).
  int bits_per_cell() const;

  /// e.g. "p=0.30 gamma=0.50 d=2 f=1 l=4".
  std::string to_string() const;
};

}  // namespace selfish
