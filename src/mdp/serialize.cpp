#include "mdp/serialize.hpp"

#include <istream>
#include <ostream>
#include <utility>

#include "support/binary_io.hpp"

namespace mdp {

namespace {

constexpr std::uint64_t kMagic = 0x53454c4d44503033ULL;  // "SELMDP03"

}  // namespace

void save_binary(const Mdp& m, std::ostream& out) {
  support::BinaryWriter writer(out);
  writer.pod(kMagic);
  const MdpStructure& s = *m.structure_;
  writer.pod<std::uint32_t>(s.initial_);
  writer.pod<std::uint64_t>(s.num_states());
  writer.array<ActionId>(s.action_begin_);
  writer.array<std::uint32_t>(s.action_label_);
  writer.array<std::uint32_t>(s.tr_begin_);
  writer.array<StateId>(s.targets_);
  writer.array<double>(m.probs_);
  writer.array<RewardCounts>(s.counts_);
  writer.checksum();
}

Mdp load_binary(std::istream& in) {
  support::BinaryReader reader(in, "MDP stream");
  SM_REQUIRE(reader.pod<std::uint64_t>() == kMagic,
             "not an MDP binary stream (bad magic)");
  MdpStructure s;
  Mdp m;
  s.initial_ = reader.pod<std::uint32_t>();
  const auto num_states = reader.pod<std::uint64_t>();
  reader.array(s.action_begin_);
  SM_REQUIRE(s.action_begin_.size() - 1 == num_states,
             "state count mismatch in MDP stream");
  reader.array(s.action_label_);
  reader.array(s.tr_begin_);
  reader.array(s.targets_);
  reader.array(m.probs_);
  reader.array(s.counts_);
  reader.checksum();
  // The builder's checks (in-range targets, non-empty states and
  // actions, consistent offset ladders, stochastic rows). The rows were
  // renormalized when the model was built, so they load as stored.
  s.check();
  m.structure_ = std::make_shared<const MdpStructure>(std::move(s));
  m.freeze(/*renormalize=*/false);
  return m;
}

}  // namespace mdp
