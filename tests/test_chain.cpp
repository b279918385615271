// Blockchain substrate: mining model and chain statistics (the block
// arena is covered by test_net_events).
#include <gtest/gtest.h>

#include <vector>

#include "chain/mining.hpp"
#include "chain/stats.hpp"
#include "support/check.hpp"

namespace {

TEST(Stats, OwnershipCountArithmetic) {
  const chain::OwnershipCount count{.honest = 1, .adversary = 2};
  EXPECT_EQ(count.total(), 3u);
  EXPECT_NEAR(count.relative_revenue(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(count.chain_quality(), 1.0 / 3.0, 1e-12);
}

TEST(Stats, EmptyCount) {
  const chain::OwnershipCount count;
  EXPECT_EQ(count.total(), 0u);
  EXPECT_DOUBLE_EQ(count.relative_revenue(), 0.0);
  EXPECT_DOUBLE_EQ(count.chain_quality(), 1.0);
}

TEST(Mining, ProbabilitiesMatchPaperFormula) {
  const chain::MiningModel model(0.3);
  for (const std::uint32_t sigma : {1u, 2u, 5u, 10u}) {
    const double denom = 1.0 - 0.3 + 0.3 * sigma;
    EXPECT_NEAR(model.adversary_target_prob(sigma), 0.3 / denom, 1e-12);
    EXPECT_NEAR(model.honest_prob(sigma), 0.7 / denom, 1e-12);
    // One party succeeds per step: probabilities are exhaustive.
    EXPECT_NEAR(model.adversary_target_prob(sigma) * sigma +
                    model.honest_prob(sigma),
                1.0, 1e-12);
  }
}

TEST(Mining, SigmaOneReducesToBitcoinSplit) {
  const chain::MiningModel model(0.3);
  EXPECT_NEAR(model.adversary_target_prob(1), 0.3, 1e-12);
  EXPECT_NEAR(model.honest_prob(1), 0.7, 1e-12);
}

TEST(Mining, ZeroTargetsMeansHonestWins) {
  const chain::MiningModel model(0.3);
  EXPECT_DOUBLE_EQ(model.adversary_target_prob(0), 0.0);
  EXPECT_DOUBLE_EQ(model.honest_prob(0), 1.0);
  support::Rng rng(1);
  const auto outcome = model.sample_step(rng, 0);
  EXPECT_FALSE(outcome.adversary_won);
}

TEST(Mining, SampleFrequencies) {
  const chain::MiningModel model(0.25);
  support::Rng rng(33);
  const std::uint32_t sigma = 3;
  const int n = 200000;
  int adv = 0;
  std::vector<int> per_target(sigma, 0);
  for (int i = 0; i < n; ++i) {
    const auto outcome = model.sample_step(rng, sigma);
    if (outcome.adversary_won) {
      ++adv;
      per_target[outcome.target]++;
    }
  }
  const double expect_adv = model.adversary_target_prob(sigma) * sigma;
  EXPECT_NEAR(adv / double(n), expect_adv, 0.01);
  for (std::uint32_t t = 0; t < sigma; ++t) {
    EXPECT_NEAR(per_target[t] / double(n), expect_adv / sigma, 0.01);
  }
}

TEST(Mining, RejectsBadResource) {
  EXPECT_THROW(chain::MiningModel(-0.1), support::InvalidArgument);
  EXPECT_THROW(chain::MiningModel(1.1), support::InvalidArgument);
}

}  // namespace
