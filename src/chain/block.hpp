// Blocks and the block arena shared by both protocol simulators.
//
// Every block a run mines, public or withheld, lives in one append-only
// BlockArena: a tree rooted at genesis (id 0) whose blocks record their
// parent, height and the node that mined them. sim::simulate mines as
// node 0 against an honest network that mines as node 1; the network
// simulator numbers its miners from 0. Genesis has no miner and counts as
// honest.
#pragma once

#include <cstdint>
#include <vector>

#include "support/check.hpp"

namespace chain {

using BlockId = std::uint32_t;
using NodeId = std::uint32_t;

inline constexpr BlockId kGenesis = 0;
inline constexpr NodeId kNoNode = 0xffffffffu;

/// Who mined a block. The adversarial coalition is modeled as one miner.
enum class Owner : std::uint8_t { kHonest = 0, kAdversary = 1 };

struct Block {
  BlockId parent = kGenesis;
  std::uint32_t height = 0;
  NodeId miner = kNoNode;  ///< kNoNode for genesis.
  /// Tie-race outcome pinned at release time (net::TiePolicy::kGammaShared):
  /// when true, a node receiving this block at the same height as its
  /// current tip switches to it; sampled once by the releasing miner so
  /// the whole network resolves the race consistently.
  bool wins_tie = false;
};

/// Append-only tree of every block mined during one run (per-node
/// *knowledge* of blocks is tracked by the network simulator).
class BlockArena {
 public:
  BlockArena() { blocks_.push_back(Block{}); }  // genesis at id 0

  BlockId add(BlockId parent, NodeId miner, bool wins_tie = false) {
    SM_REQUIRE(parent < blocks_.size(), "unknown parent block ", parent);
    Block block;
    block.parent = parent;
    block.height = blocks_[parent].height + 1;
    block.miner = miner;
    block.wins_tie = wins_tie;
    blocks_.push_back(block);
    return static_cast<BlockId>(blocks_.size() - 1);
  }

  const Block& get(BlockId id) const {
    SM_REQUIRE(id < blocks_.size(), "unknown block ", id);
    return blocks_[id];
  }

  /// Pins the tie-race outcome of an already-mined block; called by an
  /// attacker at *release* time (the coin belongs to the release, not the
  /// mining event — a withheld block may be released into a tie long after
  /// it was found).
  void set_wins_tie(BlockId id, bool wins) {
    SM_REQUIRE(id < blocks_.size() && id != kGenesis,
               "cannot set tie flag on block ", id);
    blocks_[id].wins_tie = wins;
  }

  std::uint32_t height(BlockId id) const { return get(id).height; }
  std::size_t size() const { return blocks_.size(); }

  /// The ancestor of `tip` at exactly `height`; requires
  /// height <= height(tip).
  BlockId ancestor_at(BlockId tip, std::uint32_t height) const {
    SM_REQUIRE(this->height(tip) >= height, "ancestor above tip");
    while (blocks_[tip].height > height) tip = blocks_[tip].parent;
    return tip;
  }

 private:
  std::vector<Block> blocks_;
};

}  // namespace chain
