// The attacker's concrete world in the paper's (d, f, l) model: its view
// of the public chain plus its live private forks, over blocks held in a
// chain::BlockArena.
//
// Both protocol simulators run this one world. sim::simulate drives it
// with the paper's discrete mining steps and net::MdpStrategyMiner with
// network events, so a zero-delay network replays the simulator's world
// by construction. The caller owns the arena, the randomness, any pending
// honest block, acceptance of releases and every broadcast; the window
// only tracks chains. selfish/transitions.cpp is a separate
// implementation of the same semantics, which the simulators
// cross-validate.
//
// Forks are kept in creation order and that order fixes the mining lanes:
// lane j < (number of forks) extends the j-th fork — a fork capped at l
// still occupies its lane and its proofs are wasted — and the remaining
// lanes open new forks, one per depth with a free slot, shallowest first.
// At one depth, the forks sorted longest first give the canonical slots of
// the abstract state.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "chain/block.hpp"
#include "selfish/params.hpp"
#include "selfish/state.hpp"

namespace sim {

class ForkWindow {
 public:
  /// A window whose public chain is genesis alone, with no forks.
  explicit ForkWindow(const selfish::AttackParams& params);

  /// The public chain as the attacker sees it; index = height.
  const std::vector<chain::BlockId>& public_chain() const { return chain_; }
  std::uint32_t height() const {
    return static_cast<std::uint32_t>(chain_.size() - 1);
  }
  chain::BlockId tip() const { return chain_.back(); }

  /// Concurrent mining lanes: one per live fork, plus one per depth with a
  /// free fork slot and a public block at that depth (the second condition
  /// only bites while the chain is shorter than d).
  std::uint32_t lanes() const;

  /// Lane `lane` found a block, mined by `miner` into `arena`: extends its
  /// fork or opens a new one. Returns false when the proof is wasted on a
  /// fork already l blocks long.
  bool grow(std::uint32_t lane, chain::NodeId miner, chain::BlockArena& arena);

  /// The canonical abstract (C, O, type) view. Public blocks mined by
  /// `miner` are the adversary's.
  selfish::State view(selfish::StepType type, chain::NodeId miner,
                      const chain::BlockArena& arena) const;

  /// Publishes the first k blocks (depth <= k <= length) of the fork in
  /// canonical `slot` at `depth`: the public chain is cut back to the
  /// fork's root and the k blocks become its top, the unreleased remainder
  /// re-roots on the new tip, and forks whose root left the window or the
  /// chain are pruned. Whether the network accepts the release is the
  /// caller's decision.
  void release(int depth, int slot, int k);

  /// The first k blocks of the fork in `slot` at `depth`, which stays live
  /// (a tie release that lost its race). Valid until the next change.
  std::span<const chain::BlockId> prefix(int depth, int slot, int k) const;

  /// Drops the fork in `slot` at `depth` unpublished.
  void discard(int depth, int slot);

  /// Appends `block`, a child of tip(), to the public chain and prunes the
  /// forks whose root left the depth-d window.
  void extend(chain::BlockId block);

  /// Rebuilds the public chain along the ancestry of `rival_tip`, a block
  /// higher than tip(), and prunes the forks it orphaned or pushed out of
  /// the window.
  void adopt(chain::BlockId rival_tip, const chain::BlockArena& arena);

 private:
  struct Fork {
    chain::BlockId root = chain::kGenesis;
    std::uint32_t root_height = 0;
    std::vector<chain::BlockId> blocks;  ///< blocks[0] is a child of root.
  };

  int depth_of(const Fork& fork) const {
    return static_cast<int>(height() - fork.root_height) + 1;
  }
  /// Bit `depth` is set when that depth backs a new-fork lane.
  std::uint32_t open_depths() const;
  /// Index into forks_ of the fork in canonical `slot` at `depth`.
  std::size_t find(int depth, int slot) const;
  void prune();

  selfish::AttackParams params_;
  std::vector<chain::BlockId> chain_;
  std::vector<Fork> forks_;
};

}  // namespace sim
