// Shared identifiers and small value types for the MDP subsystem.
#pragma once

#include <cstdint>
#include <limits>

namespace mdp {

/// Dense state index within one model.
using StateId = std::uint32_t;

/// Global action index (CSR position across all states of one model).
using ActionId = std::uint32_t;

inline constexpr ActionId kInvalidAction =
    std::numeric_limits<ActionId>::max();

/// Number of blocks finalized on a transition, split by owner.
///
/// The selfish-mining analysis never needs the reward *value* at model
/// construction time: the β-parameterized reward r_β = (1−β)·adversary −
/// β·honest is derived from these counters on demand, so one model serves
/// the entire binary search of Algorithm 1.
struct RewardCounts {
  std::uint16_t adversary = 0;
  std::uint16_t honest = 0;

  friend bool operator==(const RewardCounts&, const RewardCounts&) = default;
};

}  // namespace mdp
