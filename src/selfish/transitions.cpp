#include "selfish/transitions.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace selfish {

namespace {

/// Incorporates the pending honest block into the public chain: every
/// tracked block moves one depth deeper, the block leaving the tracked
/// window (old depth d−1; the pending block itself when d = 1) finalizes,
/// and forks rooted at the old depth-d block become unusable.
void incorporate_pending_honest(const State& s, Term term,
                                const AttackParams& params,
                                Outcomes& outcomes) {
  Outcome& out = outcomes.add(State{}, term);

  // Finalization at the depth-d boundary.
  if (params.d == 1) {
    out.counts.honest += 1;  // the pending block itself is instantly final
  } else if (s.adversary_owns(params.d - 1)) {
    out.counts.adversary += 1;
  } else {
    out.counts.honest += 1;
  }

  State& next = out.next;
  for (int i = params.d - 1; i >= 1; --i) next.c[i] = s.c[i - 1];
  // Row 0 (the new tip) starts with no forks; old row d−1 is dropped.

  if (params.d >= 2) {
    const std::uint8_t mask =
        static_cast<std::uint8_t>((1u << (params.d - 1)) - 1);
    // New tip is honest (bit 0 = 0); old depth i becomes depth i+1.
    next.owner_bits = static_cast<std::uint8_t>((s.owner_bits << 1) & mask);
  }
  next.type = StepType::kMining;
}

/// The accepted release of the first k blocks of fork (i, j): the new main
/// chain is the k released adversary blocks on top of the fork's root (the
/// old depth-i block). Old depths 1..i−1 — and the pending honest block,
/// when releasing from type = honest — are orphaned.
void accept_release(const State& s, int i, int j, int k, Term term,
                    const AttackParams& params, Outcomes& outcomes) {
  SM_ENSURE(i >= 1 && i <= params.d, "release depth out of range");
  SM_ENSURE(j >= 0 && j < params.f, "release slot out of range");
  SM_ENSURE(k >= i && k <= s.c[i - 1][j], "release length out of range");

  Outcome& out = outcomes.add(State{}, term);

  // Released blocks landing at new depth ≥ d are immediately final.
  if (k >= params.d) {
    out.counts.adversary += static_cast<std::uint16_t>(k - (params.d - 1));
  }
  // Tracked public blocks: old depth i+m sits at new depth k+1+m.
  for (int m = 0; i + m <= params.d - 1; ++m) {
    if (k + 1 + m >= params.d) {
      if (s.adversary_owns(i + m)) {
        out.counts.adversary += 1;
      } else {
        out.counts.honest += 1;
      }
    }
  }

  State& next = out.next;
  // New tip: the unreleased remainder of the published fork continues as a
  // private fork on the new tip.
  next.c[0][0] = static_cast<std::uint8_t>(s.c[i - 1][j] - k);
  // Old depth i+m survives at new depth k+1+m while within the window;
  // the published fork's slot is vacated (its remainder moved to the tip).
  for (int m = 0; i + m <= params.d && k + 1 + m <= params.d; ++m) {
    next.c[k + m] = s.c[i - 1 + m];
    if (m == 0) next.c[k + m][j] = 0;
  }

  // Ownership: new depths 1..min(k, d−1) are the released adversary
  // blocks; surviving tracked blocks keep their owner at shifted depth.
  std::uint8_t bits = 0;
  if (params.d >= 2) {
    const int adv_top = std::min(k, params.d - 1);
    for (int depth = 1; depth <= adv_top; ++depth) {
      bits |= static_cast<std::uint8_t>(1u << (depth - 1));
    }
    for (int m = 0; i + m <= params.d - 1; ++m) {
      const int new_depth = k + 1 + m;
      if (new_depth <= params.d - 1 && s.adversary_owns(i + m)) {
        bits |= static_cast<std::uint8_t>(1u << (new_depth - 1));
      }
    }
  }
  next.owner_bits = bits;
  next.type = StepType::kMining;
  next.canonicalize(params);
}

void apply_mine(const State& s, const AttackParams& params,
                Outcomes& outcomes) {
  switch (s.type) {
    case StepType::kAdversaryFound:
      // The freshly mined block was already recorded in its fork when it
      // arrived; declining to release just resumes mining.
      outcomes.add(s, Term{}).next.type = StepType::kMining;
      return;
    case StepType::kHonestFound:
      incorporate_pending_honest(s, Term{}, params, outcomes);
      return;
    case StepType::kMining: break;
  }

  // One proof-generation step of (p, k)-mining: each adversary target wins
  // with probability p/(1−p+p·σ); the honest miners win the step with the
  // remaining probability (1−p)/(1−p+p·σ).
  const auto sigma = static_cast<std::uint8_t>(mining_targets(s, params));
  const Term target{Term::Kind::kAdversaryBlock, sigma};
  const Term honest{Term::Kind::kHonestBlock, sigma};

  if (target.value(params.p, params.gamma) > 0.0) {
    for (int i = 0; i < params.d; ++i) {
      bool row_has_empty = false;
      for (int j = 0; j < params.f; ++j) {
        if (s.c[i][j] == 0) {
          row_has_empty = true;
          break;  // canonical rows: zeros are suffix
        }
        // Extend the fork tip; at the cap l the block is wasted and the
        // configuration is unchanged (paper's min(C+1, l)).
        State& next = outcomes.add(s, target).next;
        next.c[i][j] = static_cast<std::uint8_t>(
            std::min<int>(s.c[i][j] + 1, params.l));
        next.type = StepType::kAdversaryFound;
        next.canonicalize(params);
      }
      if (row_has_empty) {
        // Start a new fork of length 1 in the first empty slot.
        State& next = outcomes.add(s, target).next;
        for (int j = 0; j < params.f; ++j) {
          if (next.c[i][j] == 0) {
            next.c[i][j] = 1;
            break;
          }
        }
        next.type = StepType::kAdversaryFound;
        next.canonicalize(params);
      }
    }
  }
  if (honest.value(params.p, params.gamma) > 0.0) {
    // The honest block is *pending*: the adversary gets to react (match /
    // override) before it is incorporated.
    outcomes.add(s, honest).next.type = StepType::kHonestFound;
  }
}

}  // namespace

double Term::value(double p, double gamma) const {
  switch (kind) {
    case Kind::kCertain: return 1.0;
    case Kind::kRaceWon: return gamma;
    case Kind::kRaceLost: return 1.0 - gamma;
    case Kind::kAdversaryBlock:
      return p / (1.0 - p + p * static_cast<double>(sigma));
    case Kind::kHonestBlock:
      return (1.0 - p) / (1.0 - p + p * static_cast<double>(sigma));
  }
  SM_ENSURE(false, "unknown term kind ", static_cast<int>(kind));
  return 0.0;
}

std::uint32_t mining_targets(const State& s, const AttackParams& params) {
  std::uint32_t sigma = 0;
  for (int i = 0; i < params.d; ++i) {
    bool row_has_empty = false;
    for (int j = 0; j < params.f; ++j) {
      if (s.c[i][j] == 0) {
        row_has_empty = true;
        break;
      }
      ++sigma;
    }
    if (row_has_empty) ++sigma;
  }
  return sigma;
}

double min_finalization_rate(const AttackParams& params) {
  const double honest = 1.0 - params.p;
  return honest / (2.0 * (honest + params.p * params.d * params.f));
}

void apply_action(const State& s, const Action& action,
                  const AttackParams& params, Outcomes& outcomes) {
  SM_DEBUG_ENSURE(s.is_canonical(params), "state must be canonical");
  outcomes.clear();

  if (action.kind == Action::Kind::kMine) {
    apply_mine(s, params, outcomes);
    return;
  }

  const int i = action.depth;
  const int j = action.slot;
  const int k = action.length;
  SM_REQUIRE(s.type != StepType::kMining, "cannot release while mining");
  SM_REQUIRE(i >= 1 && i <= params.d && j >= 0 && j < params.f,
             "release coordinates out of range");
  SM_REQUIRE(k >= i && k <= s.c[i - 1][j],
             "release length ", k, " invalid for fork of length ",
             static_cast<int>(s.c[i - 1][j]), " at depth ", i);

  if (s.type == StepType::kAdversaryFound || k >= i + 1) {
    // Strictly longer than everything public (including a pending honest
    // block when k ≥ i+1): accepted with certainty.
    accept_release(s, i, j, k, Term{}, params, outcomes);
    return;
  }

  // type = honest and k = i: the released fork ties with the public chain
  // extended by the pending honest block — a race the adversary wins with
  // the switching probability γ.
  if (params.gamma > 0.0) {
    accept_release(s, i, j, k, Term{Term::Kind::kRaceWon}, params, outcomes);
  }
  if (params.gamma < 1.0) {
    State rejected_base = s;
    if (params.burn_lost_races) {
      // Fork-choice ablation: the losing fork was published and rejected;
      // it cannot be grown or re-raced, so it is discarded outright.
      rejected_base.c[i - 1][j] = 0;
      rejected_base.canonicalize(params);
    }
    incorporate_pending_honest(rejected_base, Term{Term::Kind::kRaceLost},
                               params, outcomes);
  }
}

}  // namespace selfish
