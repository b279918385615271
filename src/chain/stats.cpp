#include "chain/stats.hpp"

#include "support/check.hpp"

namespace chain {

WindowQuality window_quality(const std::vector<Owner>& owners,
                             std::size_t window) {
  SM_REQUIRE(window >= 1, "window length must be at least 1");
  WindowQuality quality;
  if (owners.size() < window) return quality;  // vacuous

  std::size_t honest_in_window = 0;
  for (std::size_t i = 0; i < window; ++i) {
    honest_in_window += owners[i] == Owner::kHonest;
  }
  double sum = 0.0;
  double worst = 1.0;
  std::size_t windows = 0;
  for (std::size_t start = 0;; ++start) {
    const double fraction =
        static_cast<double>(honest_in_window) / static_cast<double>(window);
    sum += fraction;
    if (fraction < worst) worst = fraction;
    ++windows;
    if (start + window >= owners.size()) break;
    honest_in_window -= owners[start] == Owner::kHonest;
    honest_in_window += owners[start + window] == Owner::kHonest;
  }
  quality.worst = worst;
  quality.average = sum / static_cast<double>(windows);
  quality.windows = windows;
  return quality;
}

}  // namespace chain
