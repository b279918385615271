#include "fleet/ring.hpp"

#include <algorithm>
#include <numeric>

#include "support/check.hpp"
#include "support/hash.hpp"

namespace fleet {

namespace {

/// splitmix64 finalizer: a full-avalanche 64-bit mix, so one flipped
/// key bit reshuffles every member's score.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t score(std::uint64_t member_hash, std::uint64_t key_hash) {
  return mix64(member_hash ^ mix64(key_hash));
}

}  // namespace

Ring::Ring(std::vector<std::string> members) : members_(std::move(members)) {
  SM_REQUIRE(!members_.empty(), "a fleet ring needs at least one member");
  member_hashes_.reserve(members_.size());
  for (const std::string& member : members_) {
    member_hashes_.push_back(support::fnv1a64(member.data(), member.size()));
  }
}

std::vector<std::size_t> Ring::ranked(std::uint64_t key_hash) const {
  std::vector<std::size_t> order(members_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return score(member_hashes_[a], key_hash) >
                            score(member_hashes_[b], key_hash);
                   });
  return order;
}

std::size_t Ring::owner(std::uint64_t key_hash) const {
  std::size_t best = 0;
  std::uint64_t best_score = score(member_hashes_[0], key_hash);
  for (std::size_t i = 1; i < members_.size(); ++i) {
    const std::uint64_t s = score(member_hashes_[i], key_hash);
    if (s > best_score) {
      best = i;
      best_score = s;
    }
  }
  return best;
}

}  // namespace fleet
