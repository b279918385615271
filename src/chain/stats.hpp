// Chain-quality accounting: owner counts of a chain segment and the
// sliding-window (μ, ℓ)-quality of a finished owner sequence.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/block.hpp"

namespace chain {

/// Counts of main-chain blocks by owner over a chain segment.
struct OwnershipCount {
  std::uint64_t honest = 0;
  std::uint64_t adversary = 0;

  std::uint64_t total() const { return honest + adversary; }

  /// The adversary's relative revenue over the segment; 0 if empty.
  double relative_revenue() const {
    const std::uint64_t t = total();
    return t == 0 ? 0.0 : static_cast<double>(adversary) / static_cast<double>(t);
  }

  /// Chain quality = 1 − relative revenue (paper §2.2); 1 if empty.
  double chain_quality() const { return 1.0 - relative_revenue(); }
};

/// (μ, ℓ)-chain quality of a finished owner sequence (paper §2.2): a chain
/// satisfies (μ, ℓ)-chain quality when every window of ℓ consecutive
/// blocks contains at least a μ fraction of honest blocks. `worst` is the
/// largest such μ for the given sequence — the guarantee it actually
/// provides; `average` is the mean honest fraction across all windows.
struct WindowQuality {
  double worst = 1.0;
  double average = 1.0;
  std::size_t windows = 0;
};

/// Computes the sliding-window quality of `owners` (oldest block first)
/// for windows of length `window`. Requires window ≥ 1; sequences shorter
/// than the window yield zero windows and the vacuous quality 1.
WindowQuality window_quality(const std::vector<Owner>& owners,
                             std::size_t window);

}  // namespace chain
