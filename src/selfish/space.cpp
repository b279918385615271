#include "selfish/space.hpp"

#include <limits>

#include "support/check.hpp"

namespace selfish {

mdp::StateId StateSpace::intern(const State& s) {
  SM_REQUIRE(s.is_canonical(params_), "interning a non-canonical state");
  const std::uint64_t key = s.pack(params_);
  const auto [it, inserted] =
      index_.emplace(key, static_cast<mdp::StateId>(keys_.size()));
  if (inserted) keys_.push_back(key);
  return it->second;
}

mdp::StateId StateSpace::id_of(const State& s) const {
  const std::optional<mdp::StateId> id = find(s.pack(params_));
  SM_REQUIRE(id.has_value(), "state not in the enumerated space: ",
             s.to_string(params_));
  return *id;
}

bool StateSpace::contains(const State& s) const {
  return find(s.pack(params_)).has_value();
}

std::optional<mdp::StateId> StateSpace::find(std::uint64_t key) const {
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

State StateSpace::state_of(mdp::StateId id) const {
  SM_REQUIRE(id < keys_.size(), "state id out of range: ", id);
  return State::unpack(keys_[id], params_);
}

std::uint64_t raw_state_count(const AttackParams& params) {
  const std::uint64_t cap = std::numeric_limits<std::int64_t>::max();
  std::uint64_t count = 3;  // type
  for (int bit = 0; bit < params.d - 1; ++bit) {
    if (count > cap / 2) return cap;
    count *= 2;
  }
  for (int cell = 0; cell < params.d * params.f; ++cell) {
    const auto base = static_cast<std::uint64_t>(params.l + 1);
    if (count > cap / base) return cap;
    count *= base;
  }
  return count;
}

}  // namespace selfish
