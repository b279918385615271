// Binary model serialization: MDP round trips and the selfish-model cache.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "analysis/errev.hpp"
#include "mdp/serialize.hpp"
#include "mdp/value_iteration.hpp"
#include "selfish/cache.hpp"
#include "support/check.hpp"
#include "test_helpers.hpp"

namespace {

void expect_same_structure(const mdp::Mdp& a, const mdp::Mdp& b) {
  ASSERT_EQ(a.num_states(), b.num_states());
  ASSERT_EQ(a.num_actions(), b.num_actions());
  ASSERT_EQ(a.num_transitions(), b.num_transitions());
  EXPECT_EQ(a.initial_state(), b.initial_state());
  for (mdp::StateId s = 0; s < a.num_states(); ++s) {
    EXPECT_EQ(a.action_begin(s), b.action_begin(s));
  }
  for (mdp::ActionId act = 0; act < a.num_actions(); ++act) {
    EXPECT_EQ(a.action_label(act), b.action_label(act));
    EXPECT_EQ(a.transition_begin(act), b.transition_begin(act));
  }
  for (std::uint32_t i = 0; i < a.num_transitions(); ++i) {
    EXPECT_EQ(a.target(i), b.target(i));
    EXPECT_DOUBLE_EQ(a.prob(i), b.prob(i));
    EXPECT_EQ(a.counts(i), b.counts(i));
  }
  // The arrays are written and read as they are: bit for bit.
  EXPECT_EQ(test_helpers::model_hash(a), test_helpers::model_hash(b));
}

/// Sets the u64 at `offset` of `bytes`.
void overwrite_u64(std::string& bytes, std::size_t offset,
                   std::uint64_t value) {
  ASSERT_LE(offset + sizeof value, bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof value);
}

// The first array length of an MDP stream follows its magic (8 B), the
// initial state (4 B) and the state count (8 B). A loader that allocated
// 2^33 − 1 entries before reading them would ask for 32 GiB.
constexpr std::size_t kFirstLengthOffset = 20;
constexpr std::uint64_t kHugeLength = (std::uint64_t{1} << 33) - 1;

TEST(MdpSerialize, RoundTripSmallModel) {
  const mdp::Mdp original = test_helpers::two_action_choice();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  mdp::save_binary(original, buffer);
  const mdp::Mdp loaded = mdp::load_binary(buffer);
  expect_same_structure(original, loaded);
}

TEST(MdpSerialize, RoundTripRandomModel) {
  support::Rng rng(606);
  const mdp::Mdp original = test_helpers::with_mining_steps(
      test_helpers::random_unichain(rng, 40, 3, 4));
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  mdp::save_binary(original, buffer);
  const mdp::Mdp loaded = mdp::load_binary(buffer);
  expect_same_structure(original, loaded);
  // Behavior preserved, not just structure.
  const auto rewards = original.beta_rewards(0.3);
  const auto via_original = mdp::value_iteration(original, rewards);
  const auto via_loaded = mdp::value_iteration(loaded, rewards);
  EXPECT_NEAR(via_original.gain, via_loaded.gain, 1e-9);
}

TEST(MdpSerialize, RejectsGarbage) {
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  buffer << "not a model";
  EXPECT_THROW(mdp::load_binary(buffer), support::Error);
}

TEST(MdpSerialize, RejectsTruncation) {
  const mdp::Mdp original = test_helpers::two_state_cycle();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  mdp::save_binary(original, buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2),
                              std::ios::in | std::ios::binary);
  EXPECT_THROW(mdp::load_binary(truncated), support::Error);
}

TEST(MdpSerialize, RejectsCorruptLengthBeforeAllocating) {
  const mdp::Mdp original = test_helpers::two_action_choice();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  mdp::save_binary(original, buffer);
  std::string bytes = buffer.str();
  overwrite_u64(bytes, kFirstLengthOffset, kHugeLength);
  std::stringstream corrupt(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW(mdp::load_binary(corrupt), support::Error);
}

TEST(MdpSerialize, RejectsInconsistentArrays) {
  // two_action_choice's action ladder is {0, 2, 3}; it starts right after
  // its length field. Loads re-check the model's invariants.
  const mdp::Mdp original = test_helpers::two_action_choice();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  mdp::save_binary(original, buffer);
  const std::string saved = buffer.str();
  const std::size_t ladder = kFirstLengthOffset + sizeof(std::uint64_t);
  for (const std::uint32_t second : {0u, 4u}) {  // no actions; out of range
    std::string bytes = saved;
    std::memcpy(bytes.data() + ladder + sizeof(std::uint32_t), &second,
                sizeof second);
    // Re-seal the checksum trailer so the load reaches the model checks.
    const std::size_t trailer = bytes.size() - sizeof(std::uint64_t);
    overwrite_u64(bytes, trailer, support::fnv1a64(bytes.data(), trailer));
    std::stringstream corrupt(bytes, std::ios::in | std::ios::binary);
    EXPECT_THROW(mdp::load_binary(corrupt), support::InvalidArgument)
        << "ladder entry " << second;
  }
}

TEST(ModelCache, RoundTripPreservesAnalysis) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  const auto original = selfish::build_model(params);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  selfish::save_model(original, buffer);
  const auto loaded = selfish::load_model(buffer, params);

  expect_same_structure(original.mdp, loaded.mdp);
  for (mdp::StateId s = 0; s < original.mdp.num_states(); ++s) {
    EXPECT_EQ(original.space.state_of(s), loaded.space.state_of(s));
  }
}

TEST(ModelCache, RejectsParameterMismatch) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  const auto model = selfish::build_model(params);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  selfish::save_model(model, buffer);
  selfish::AttackParams other = params;
  other.gamma = 0.75;
  EXPECT_THROW(selfish::load_model(buffer, other), support::InvalidArgument);
}

TEST(ModelCache, BuildOrLoadUsesAndRefreshesTheFile) {
  const selfish::AttackParams params{.p = 0.25, .gamma = 0.5, .d = 2, .f = 1, .l = 3};
  const std::string path = "model_cache_test.bin";
  std::remove(path.c_str());

  // First call builds and writes the cache.
  const auto first = selfish::build_or_load_model(params, path);
  // Second call must load the identical model from disk.
  const auto second = selfish::build_or_load_model(params, path);
  expect_same_structure(first.mdp, second.mdp);

  // A different configuration ignores the stale cache and rebuilds.
  selfish::AttackParams other = params;
  other.p = 0.3;
  const auto third = selfish::build_or_load_model(other, path);
  EXPECT_EQ(third.params.p, 0.3);
  std::remove(path.c_str());
}

TEST(ModelCache, CorruptFileIsRebuiltAndRewritten) {
  const selfish::AttackParams params{.p = 0.25, .gamma = 0.5, .d = 2, .f = 1, .l = 3};
  const auto fresh = selfish::build_model(params);
  const auto mode = std::ios::in | std::ios::out | std::ios::binary;
  std::stringstream model_stream(mode);
  selfish::save_model(fresh, model_stream);
  std::stringstream mdp_stream(mode);
  mdp::save_binary(fresh.mdp, mdp_stream);
  // The MDP stream is the tail of the model file.
  std::string bytes = model_stream.str();
  const std::size_t mdp_offset = bytes.size() - mdp_stream.str().size();
  overwrite_u64(bytes, mdp_offset + kFirstLengthOffset, kHugeLength);

  const std::string path = "model_cache_corrupt_test.bin";
  std::ofstream(path, std::ios::binary) << bytes;
  const auto rebuilt = selfish::build_or_load_model(params, path);
  EXPECT_EQ(test_helpers::model_hash(rebuilt.mdp),
            test_helpers::model_hash(fresh.mdp));
  // The rebuild replaced the corrupt file with a loadable one.
  std::ifstream in(path, std::ios::binary);
  const auto reloaded = selfish::load_model(in, params);
  EXPECT_EQ(test_helpers::model_hash(reloaded.mdp),
            test_helpers::model_hash(fresh.mdp));
  std::remove(path.c_str());
}

TEST(ModelCache, FlippedBitIsRefusedAndRebuilt) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  const auto fresh = selfish::build_model(params);
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  selfish::save_model(fresh, stream);
  const std::string saved = stream.str();

  // One flipped bit at 60 evenly spaced offsets, covering the header, the
  // state dictionary, every MDP array and both checksums.
  for (std::size_t i = 0; i < 60; ++i) {
    const std::size_t offset = i * (saved.size() - 1) / 59;
    std::string bytes = saved;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x04);
    std::stringstream corrupt(bytes, std::ios::in | std::ios::binary);
    EXPECT_THROW(selfish::load_model(corrupt, params),
                 support::InvalidArgument)
        << "offset " << offset << " of " << saved.size();
  }

  // On disk the flipped file is rebuilt and replaced.
  std::string bytes = saved;
  bytes[saved.size() / 2] = static_cast<char>(bytes[saved.size() / 2] ^ 0x04);
  const std::string path = "model_cache_flipped_test.bin";
  std::ofstream(path, std::ios::binary) << bytes;
  const auto rebuilt = selfish::build_or_load_model(params, path);
  EXPECT_EQ(test_helpers::model_hash(rebuilt.mdp),
            test_helpers::model_hash(fresh.mdp));
  std::ifstream in(path, std::ios::binary);
  const auto reloaded = selfish::load_model(in, params);
  EXPECT_EQ(test_helpers::model_hash(reloaded.mdp),
            test_helpers::model_hash(fresh.mdp));
  std::remove(path.c_str());
}

}  // namespace
