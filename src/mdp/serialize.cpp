#include "mdp/serialize.hpp"

#include <istream>
#include <ostream>

#include "support/binary_io.hpp"

namespace mdp {

namespace {

constexpr std::uint64_t kMagic = 0x53454c4d44503033ULL;  // "SELMDP03"

}  // namespace

void save_binary(const Mdp& m, std::ostream& out) {
  support::BinaryWriter writer(out);
  writer.pod(kMagic);
  writer.pod<std::uint32_t>(m.initial_);
  writer.pod<std::uint64_t>(m.num_states());
  writer.array<ActionId>(m.action_begin_);
  writer.array<std::uint32_t>(m.action_label_);
  writer.array<std::uint32_t>(m.tr_begin_);
  writer.array<StateId>(m.targets_);
  writer.array<double>(m.probs_);
  writer.array<RewardCounts>(m.counts_);
  writer.checksum();
}

Mdp load_binary(std::istream& in) {
  support::BinaryReader reader(in, "MDP stream");
  SM_REQUIRE(reader.pod<std::uint64_t>() == kMagic,
             "not an MDP binary stream (bad magic)");
  Mdp m;
  m.initial_ = reader.pod<std::uint32_t>();
  const auto num_states = reader.pod<std::uint64_t>();
  reader.array(m.action_begin_);
  SM_REQUIRE(m.action_begin_.size() - 1 == num_states,
             "state count mismatch in MDP stream");
  reader.array(m.action_label_);
  reader.array(m.tr_begin_);
  reader.array(m.targets_);
  reader.array(m.probs_);
  reader.array(m.counts_);
  reader.checksum();
  // The builder's checks (stochastic rows, in-range targets, non-empty
  // states and actions) plus consistent offset ladders. The rows were
  // renormalized when the model was built, so they load as stored.
  m.freeze(/*renormalize=*/false);
  return m;
}

}  // namespace mdp
