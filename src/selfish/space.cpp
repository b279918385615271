#include "selfish/space.hpp"

#include <limits>

#include "support/check.hpp"

namespace selfish {

namespace {

constexpr mdp::StateId kEmptySlot = std::numeric_limits<mdp::StateId>::max();
constexpr std::size_t kInitialSlots = 16;

/// The murmur3 64-bit finalizer: packed keys differ in a few low cell
/// bits, so they are mixed before the slot count's mask picks low bits.
std::uint64_t mix(std::uint64_t key) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdULL;
  key ^= key >> 33;
  key *= 0xc4ceb9fe1a85ec53ULL;
  key ^= key >> 33;
  return key;
}

}  // namespace

StateSpace::StateSpace(const AttackParams& params)
    : params_(params), slots_(kInitialSlots, kEmptySlot) {
  params_.validate();
}

std::size_t StateSpace::probe(std::uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = mix(key) & mask;
  while (slots_[slot] != kEmptySlot && keys_[slots_[slot]] != key) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void StateSpace::grow() {
  slots_.assign(2 * slots_.size(), kEmptySlot);
  for (mdp::StateId id = 0; id < keys_.size(); ++id) {
    slots_[probe(keys_[id])] = id;
  }
}

mdp::StateId StateSpace::intern(const State& s) {
  SM_REQUIRE(s.is_canonical(params_), "interning a non-canonical state");
  const std::uint64_t key = s.pack(params_);
  std::size_t slot = probe(key);
  if (slots_[slot] != kEmptySlot) return slots_[slot];
  if (2 * (keys_.size() + 1) > slots_.size()) {
    grow();
    slot = probe(key);
  }
  const auto id = static_cast<mdp::StateId>(keys_.size());
  keys_.push_back(key);
  slots_[slot] = id;
  return id;
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
  const mdp::StateId id = slots_[probe(key)];
  if (id == kEmptySlot) return std::nullopt;
  return id;
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
