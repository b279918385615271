#include "baselines/single_tree.hpp"

#include <array>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "support/check.hpp"

namespace baselines {

namespace {

constexpr int kMaxLevels = 8;

/// Within-round state: nodes per tree level (level 0 is the implicit root
/// and always has one node) and the public-chain length since the fork
/// point. Rounds absorb on publication or on an honest block with an
/// empty tree.
struct RoundState {
  std::array<std::uint8_t, kMaxLevels> nodes{};  // nodes[m] = level m+1
  std::uint8_t honest_len = 0;

  std::uint64_t key(int max_depth) const {
    std::uint64_t k = honest_len;
    for (int m = 0; m < max_depth; ++m) k = (k << 6) | nodes[m];
    return k;
  }

  /// Tree depth T: deepest non-empty level.
  int depth(int max_depth) const {
    for (int m = max_depth - 1; m >= 0; --m) {
      if (nodes[m] > 0) return m + 1;
    }
    return 0;
  }
};

/// Expected (adversary, honest) blocks accumulated from `s` to the end of
/// the round.
struct Expectation {
  double adversary = 0.0;
  double honest = 0.0;
};

class RoundAnalyzer {
 public:
  explicit RoundAnalyzer(const SingleTreeParams& params) : params_(params) {}

  Expectation expectation(const RoundState& s) {
    const auto it = memo_.find(s.key(params_.max_depth));
    if (it != memo_.end()) return it->second;

    // Mining targets: every tree node (including the root) whose child
    // level still has capacity and lies within the depth bound.
    std::uint32_t sigma = 0;
    for (int m = 0; m < params_.max_depth; ++m) {
      const int parents = (m == 0) ? 1 : s.nodes[m - 1];
      if (parents > 0 && s.nodes[m] < params_.max_width) {
        sigma += static_cast<std::uint32_t>(parents);
      }
    }

    const double denom =
        1.0 - params_.p + params_.p * static_cast<double>(sigma);
    const double per_target = params_.p / denom;
    const double honest_prob = (1.0 - params_.p) / denom;

    Expectation total;
    // Adversary successes: a child appears at the first-from-root level
    // the winning parent feeds. Parents at level m−1 are exchangeable, so
    // the level gains one node with probability parents·per_target.
    for (int m = 0; m < params_.max_depth; ++m) {
      const int parents = (m == 0) ? 1 : s.nodes[m - 1];
      if (parents == 0 || s.nodes[m] >= params_.max_width) continue;
      RoundState next = s;
      next.nodes[m] = static_cast<std::uint8_t>(next.nodes[m] + 1);
      const Expectation e = expectation(next);
      const double prob = per_target * parents;
      total.adversary += prob * e.adversary;
      total.honest += prob * e.honest;
    }

    // Honest success: the public chain grows by one.
    {
      const int tree_depth = s.depth(params_.max_depth);
      const int new_len = s.honest_len + 1;
      if (tree_depth == 0) {
        // Empty tree: the block is final, the fork point moves — absorb.
        total.honest += honest_prob * 1.0;
      } else if (new_len >= tree_depth) {
        // The chain caught up: publish the deepest path and race.
        total.adversary += honest_prob * params_.gamma * tree_depth;
        total.honest += honest_prob * (1.0 - params_.gamma) * new_len;
      } else {
        RoundState next = s;
        next.honest_len = static_cast<std::uint8_t>(new_len);
        const Expectation e = expectation(next);
        total.adversary += honest_prob * e.adversary;
        total.honest += honest_prob * e.honest;
      }
    }

    memo_.emplace(s.key(params_.max_depth), total);
    return total;
  }

  std::size_t states_evaluated() const { return memo_.size(); }

 private:
  SingleTreeParams params_;
  std::unordered_map<std::uint64_t, Expectation> memo_;
};

}  // namespace

void SingleTreeParams::validate() const {
  // p = 1 would let the round run forever (the honest chain never grows).
  SM_REQUIRE(p >= 0.0 && p < 1.0, "p out of [0,1): ", p);
  SM_REQUIRE(gamma >= 0.0 && gamma <= 1.0, "gamma out of [0,1]: ", gamma);
  SM_REQUIRE(max_depth >= 1 && max_depth <= kMaxLevels,
             "max_depth out of [1,", kMaxLevels, "]: ", max_depth);
  SM_REQUIRE(max_width >= 1 && max_width <= 63,
             "max_width out of [1,63]: ", max_width);
}

SingleTreeResult analyze_single_tree(const SingleTreeParams& params) {
  params.validate();
  RoundAnalyzer analyzer(params);
  const Expectation e = analyzer.expectation(RoundState{});

  SingleTreeResult result;
  result.expected_adversary = e.adversary;
  result.expected_honest = e.honest;
  result.states_evaluated = analyzer.states_evaluated();
  const double total = e.adversary + e.honest;
  SM_ENSURE(total > 0.0, "a round finalizes at least one block on average");
  result.errev = e.adversary / total;
  return result;
}

double single_tree_errev(double p, double gamma) {
  if (p == 1.0) return std::numeric_limits<double>::quiet_NaN();
  return analyze_single_tree(SingleTreeParams{.p = p, .gamma = gamma}).errev;
}

}  // namespace baselines
