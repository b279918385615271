#include "selfish/cache.hpp"

#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <vector>

#include "mdp/serialize.hpp"
#include "support/binary_io.hpp"
#include "support/check.hpp"

namespace selfish {

namespace {

constexpr std::uint64_t kMagic = 0x53454c4d4f443032ULL;  // "SELMOD02"

}  // namespace

void save_model(const SelfishModel& model, std::ostream& out) {
  support::BinaryWriter writer(out);
  writer.pod(kMagic);
  writer.pod(model.params.p);
  writer.pod(model.params.gamma);
  writer.pod<std::int32_t>(model.params.d);
  writer.pod<std::int32_t>(model.params.f);
  writer.pod<std::int32_t>(model.params.l);
  writer.pod<std::uint8_t>(model.params.burn_lost_races ? 1 : 0);

  // The state dictionary: packed keys in id order.
  writer.pod<std::uint64_t>(model.space->size());
  for (mdp::StateId s = 0; s < model.space->size(); ++s) {
    writer.pod<std::uint64_t>(model.space->state_of(s).pack(model.params));
  }
  writer.checksum();
  mdp::save_binary(model.mdp, out);
}

SelfishModel load_model(std::istream& in, const AttackParams& expected) {
  expected.validate();
  support::BinaryReader reader(in, "model stream");
  SM_REQUIRE(reader.pod<std::uint64_t>() == kMagic,
             "not a selfish-mining model stream (bad magic)");
  AttackParams cached;
  cached.p = reader.pod<double>();
  cached.gamma = reader.pod<double>();
  cached.d = reader.pod<std::int32_t>();
  cached.f = reader.pod<std::int32_t>();
  cached.l = reader.pod<std::int32_t>();
  cached.burn_lost_races = reader.pod<std::uint8_t>() != 0;
  SM_REQUIRE(cached.p == expected.p && cached.gamma == expected.gamma &&
                 cached.d == expected.d && cached.f == expected.f &&
                 cached.l == expected.l &&
                 cached.burn_lost_races == expected.burn_lost_races,
             "cached model has different parameters (", cached.to_string(),
             " vs ", expected.to_string(), ")");

  // The keys are checksummed before any is decoded.
  std::vector<std::uint64_t> keys;
  reader.array(keys);
  reader.checksum();
  auto space = std::make_shared<StateSpace>(cached);
  for (std::uint64_t s = 0; s < keys.size(); ++s) {
    const State state = State::unpack(keys[s], cached);
    SM_REQUIRE(state.is_canonical(cached),
               "cached state dictionary holds a non-canonical state");
    const mdp::StateId id = space->intern(state);
    SM_REQUIRE(id == s, "cached state dictionary is out of order");
  }

  mdp::Mdp m = mdp::load_binary(in);
  SM_REQUIRE(m.num_states() == space->size(),
             "cached MDP and state dictionary disagree (", m.num_states(),
             " vs ", space->size(), " states)");
  return SelfishModel{cached, std::move(space), std::move(m)};
}

SelfishModel build_or_load_model(const AttackParams& params,
                                 const std::string& path) {
  params.validate();
  {
    std::ifstream in(path, std::ios::binary);
    if (in.good()) {
      try {
        return load_model(in, params);
      } catch (const support::Error&) {
        // Stale, foreign or corrupt cache: fall through and rebuild.
      }
    }
  }
  SelfishModel model = build_model(params);
  support::write_atomically(  // best effort
      path, [&model](std::ostream& out) { save_model(model, out); });
  return model;
}

}  // namespace selfish
