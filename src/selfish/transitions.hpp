// Probabilistic transition semantics of the selfish-mining MDP.
//
// apply_action is a pure function from (state, action) to a distribution
// over successor states, each outcome annotated with the number of blocks
// it finalizes per owner. These counters drive the β-reward family of the
// formal analysis: r_β = (1−β)·adversary − β·honest.
//
// Finality rule (DESIGN.md §3): a block is final once at public depth ≥ d,
// because the deepest representable fork (rooted at depth d) can only
// orphan depths 1..d−1. Ownership of depths 1..d−1 is tracked in O;
// rewards fire exactly when a block crosses the depth-d boundary, and
// orphaned blocks (public blocks replaced by an accepted fork, or a pending
// honest block that loses a race) never pay.
#pragma once

#include <cstdint>
#include <vector>

#include "mdp/types.hpp"
#include "selfish/actions.hpp"
#include "selfish/state.hpp"

namespace selfish {

/// One probabilistic outcome of an action.
struct Outcome {
  State next;
  double prob = 0.0;
  mdp::RewardCounts counts;  ///< Blocks finalized by this outcome.
};

/// Number of concurrent adversary mining targets σ in `s`: one per
/// non-empty private fork (tip extension) plus one per depth that still
/// has an empty fork slot (new-fork creation). σ ≥ d ≥ 1 always.
std::uint32_t mining_targets(const State& s, const AttackParams& params);

/// A floor on the long-run rate g_A + g_H at which every strategy finalizes
/// blocks, per MDP step: (1−p) / (2·(1−p+p·d·f)). The argument:
///  - a mining step finds an honest block with probability
///    (1−p)/(1−p+p·σ) ≥ (1−p)/(1−p+p·d·f), because σ ≤ d·f
///    (mining_targets counts at most f targets per depth);
///  - every honest block raises the public height by one: it is either
///    incorporated, or it loses a race and is swapped for an adversary
///    block of the same height, and no action lowers the height;
///  - blocks are final at depth d, so in the long run blocks finalize at
///    the rate the public height grows;
///  - mining states are every other MDP step, which halves the rate.
/// The floor is tight: at d = f = 1 the strategy that never releases
/// attains it. Algorithm 1 divides a tied gain interval by it to bound
/// ERRev*.
double min_finalization_rate(const AttackParams& params);

/// Applies `action` (must be available in `s` per available_actions) and
/// returns the successor distribution over canonical states. Outcomes with
/// probability 0 (e.g. the losing side of a γ ∈ {0,1} race) are omitted;
/// outcomes reaching the same canonical state are NOT merged here — the
/// model builder merges them.
std::vector<Outcome> apply_action(const State& s, const Action& action,
                                  const AttackParams& params);

}  // namespace selfish
