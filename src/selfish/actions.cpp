#include "selfish/actions.hpp"

#include <cstdio>

#include "support/check.hpp"

namespace selfish {

std::uint32_t Action::encode() const {
  return static_cast<std::uint32_t>(kind) |
         (static_cast<std::uint32_t>(depth) << 8) |
         (static_cast<std::uint32_t>(slot) << 16) |
         (static_cast<std::uint32_t>(length) << 24);
}

Action Action::decode(std::uint32_t code) {
  Action a;
  a.kind = static_cast<Kind>(code & 0xff);
  a.depth = static_cast<int>((code >> 8) & 0xff);
  a.slot = static_cast<int>((code >> 16) & 0xff);
  a.length = static_cast<int>((code >> 24) & 0xff);
  return a;
}

std::string Action::to_string() const {
  if (kind == Kind::kMine) return "mine";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "release(i=%d,j=%d,k=%d)", depth, slot,
                length);
  return buf;
}

void available_actions(const State& s, const AttackParams& params,
                       std::vector<Action>& actions) {
  SM_REQUIRE(s.is_canonical(params), "state must be canonical");
  actions.clear();
  actions.push_back(Action::mine());
  if (s.type == StepType::kMining) return;

  // Decision states: every release that is at least as long as the chain
  // it competes with. A fork of length k at depth i replaces the i−1 public
  // blocks above its root; with a pending honest block (type = honest) the
  // competitor is one longer, making k = i a tie instead of a win.
  for (int i = 1; i <= params.d; ++i) {
    for (int j = 0; j < params.f; ++j) {
      const int len = s.c[i - 1][j];
      if (len == 0) break;  // canonical rows are sorted descending
      if (j > 0 && len == s.c[i - 1][j - 1]) continue;  // exchangeable fork
      for (int k = i; k <= len; ++k) {
        actions.push_back(Action::release(i, j, k));
      }
    }
  }
}

}  // namespace selfish
