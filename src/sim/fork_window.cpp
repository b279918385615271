#include "sim/fork_window.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "support/check.hpp"

namespace sim {

ForkWindow::ForkWindow(const selfish::AttackParams& params)
    : params_(params), chain_{chain::kGenesis} {
  params_.validate();
}

std::uint32_t ForkWindow::open_depths() const {
  std::array<int, selfish::kMaxDepth + 1> forks_at{};
  for (const Fork& fork : forks_) ++forks_at[depth_of(fork)];
  std::uint32_t open = 0;
  for (int depth = 1; depth <= params_.d; ++depth) {
    if (forks_at[depth] < params_.f &&
        static_cast<std::uint32_t>(depth) <= height() + 1) {
      open |= 1u << depth;
    }
  }
  return open;
}

std::uint32_t ForkWindow::lanes() const {
  return static_cast<std::uint32_t>(forks_.size()) +
         static_cast<std::uint32_t>(std::popcount(open_depths()));
}

bool ForkWindow::grow(std::uint32_t lane, chain::NodeId miner,
                      chain::BlockArena& arena) {
  if (lane < forks_.size()) {
    Fork& fork = forks_[lane];
    if (static_cast<int>(fork.blocks.size()) >= params_.l) return false;
    fork.blocks.push_back(arena.add(fork.blocks.back(), miner));
    return true;
  }
  // The remaining lanes open forks at the open depths, shallowest first.
  std::uint32_t open = open_depths();
  for (std::size_t j = forks_.size(); j < lane; ++j) open &= open - 1;
  SM_REQUIRE(open != 0, "mining lane ", lane, " out of range");
  const int depth = std::countr_zero(open);
  const std::uint32_t root_height =
      height() - static_cast<std::uint32_t>(depth - 1);
  const chain::BlockId root = chain_[root_height];
  forks_.push_back(Fork{root, root_height, {arena.add(root, miner)}});
  return true;
}

selfish::State ForkWindow::view(selfish::StepType type, chain::NodeId miner,
                                const chain::BlockArena& arena) const {
  selfish::State s;
  std::array<int, selfish::kMaxDepth + 1> forks_at{};
  for (const Fork& fork : forks_) {
    const int depth = depth_of(fork);
    SM_ENSURE(forks_at[depth] < params_.f,
              "more live forks at one depth than slots");
    s.c[depth - 1][forks_at[depth]++] =
        static_cast<std::uint8_t>(fork.blocks.size());
  }
  // Ownership of the public blocks at depths 1..d-1; genesis (height 0)
  // counts as honest.
  for (int depth = 1; depth <= params_.d - 1 &&
                      static_cast<std::uint32_t>(depth) <= height();
       ++depth) {
    const std::uint32_t h = height() - static_cast<std::uint32_t>(depth - 1);
    if (arena.get(chain_[h]).miner == miner) {
      s.owner_bits |= static_cast<std::uint8_t>(1u << (depth - 1));
    }
  }
  s.type = type;
  s.canonicalize(params_);  // sorts each depth's forks longest first
  return s;
}

std::size_t ForkWindow::find(int depth, int slot) const {
  std::vector<std::size_t> at_depth;
  for (std::size_t i = 0; i < forks_.size(); ++i) {
    if (depth_of(forks_[i]) == depth) at_depth.push_back(i);
  }
  SM_REQUIRE(slot >= 0 && slot < static_cast<int>(at_depth.size()),
             "no fork in slot ", slot, " at depth ", depth);
  std::sort(at_depth.begin(), at_depth.end(),
            [this](std::size_t a, std::size_t b) {
              return forks_[a].blocks.size() > forks_[b].blocks.size();
            });
  return at_depth[slot];
}

void ForkWindow::release(int depth, int slot, int k) {
  const std::size_t index = find(depth, slot);
  SM_REQUIRE(k >= depth, "release shorter than the public chain");
  SM_ENSURE(static_cast<int>(forks_[index].blocks.size()) >= k,
            "fork shorter than k");
  Fork fork = std::move(forks_[index]);
  forks_.erase(forks_.begin() + static_cast<std::ptrdiff_t>(index));
  chain_.resize(fork.root_height + 1);
  chain_.insert(chain_.end(), fork.blocks.begin(), fork.blocks.begin() + k);
  if (static_cast<int>(fork.blocks.size()) > k) {
    fork.root = tip();
    fork.root_height = height();
    fork.blocks.erase(fork.blocks.begin(), fork.blocks.begin() + k);
    forks_.push_back(std::move(fork));
  }
  prune();
}

std::span<const chain::BlockId> ForkWindow::prefix(int depth, int slot,
                                                   int k) const {
  const Fork& fork = forks_[find(depth, slot)];
  SM_ENSURE(static_cast<int>(fork.blocks.size()) >= k, "fork shorter than k");
  return {fork.blocks.data(), static_cast<std::size_t>(k)};
}

void ForkWindow::discard(int depth, int slot) {
  forks_.erase(forks_.begin() +
               static_cast<std::ptrdiff_t>(find(depth, slot)));
}

void ForkWindow::extend(chain::BlockId block) {
  chain_.push_back(block);
  prune();
}

void ForkWindow::adopt(chain::BlockId rival_tip,
                       const chain::BlockArena& arena) {
  SM_REQUIRE(arena.height(rival_tip) > height(),
             "adopting a rival chain no longer than ours");
  std::vector<chain::BlockId> path;  // rival_tip down to the common block
  chain::BlockId cursor = rival_tip;
  for (;;) {
    const std::uint32_t h = arena.height(cursor);
    if (h < chain_.size() && chain_[h] == cursor) break;
    path.push_back(cursor);
    cursor = arena.get(cursor).parent;
  }
  chain_.resize(arena.height(cursor) + 1);
  chain_.insert(chain_.end(), path.rbegin(), path.rend());
  prune();
}

void ForkWindow::prune() {
  std::erase_if(forks_, [this](const Fork& fork) {
    return fork.root_height + static_cast<std::uint32_t>(params_.d) <
               chain_.size() ||
           chain_[fork.root_height] != fork.root;
  });
}

}  // namespace sim
