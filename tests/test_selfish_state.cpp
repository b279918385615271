// State representation: validation, canonicalization, packing.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "selfish/state.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace {

selfish::AttackParams params_242() {
  return selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 2, .f = 4, .l = 4};
}

TEST(AttackParams, ValidatesRanges) {
  selfish::AttackParams p;
  EXPECT_NO_THROW(p.validate());
  p.p = 1.5;
  EXPECT_THROW(p.validate(), support::InvalidArgument);
  p.p = 0.3;
  p.gamma = -0.1;
  EXPECT_THROW(p.validate(), support::InvalidArgument);
  p.gamma = 0.5;
  p.d = 0;
  EXPECT_THROW(p.validate(), support::InvalidArgument);
  p.d = 2;
  p.f = 0;
  EXPECT_THROW(p.validate(), support::InvalidArgument);
  p.f = 1;
  p.l = 0;
  EXPECT_THROW(p.validate(), support::InvalidArgument);
}

TEST(AttackParams, RangeMessagesArePlain) {
  // The CLI prints these after `error: ` and a served reply carries them
  // as is, so they name the parameter, its range and the value only.
  const auto message = [](selfish::AttackParams p) {
    try {
      p.validate();
    } catch (const support::InvalidArgument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  selfish::AttackParams p;
  p.p = 2.0;
  EXPECT_EQ(message(p), "p out of [0,1]: 2");
  p = {};
  p.gamma = 1.5;
  EXPECT_EQ(message(p), "gamma out of [0,1]: 1.5");
  p = {};
  p.d = 9;
  EXPECT_EQ(message(p), "d out of [1,8]: 9");
  p = {};
  p.l = 0;
  EXPECT_EQ(message(p), "l out of [1,15]: 0");
}

TEST(AttackParams, RejectsOverflowingConfiguration) {
  // 8·6 cells at 4 bits each = 192 bits ≫ 64.
  selfish::AttackParams p{.p = 0.1, .gamma = 0.5, .d = 8, .f = 6, .l = 15};
  EXPECT_THROW(p.validate(), support::InvalidArgument);
}

TEST(AttackParams, BitsPerCell) {
  selfish::AttackParams p;
  p.l = 1;
  EXPECT_EQ(p.bits_per_cell(), 1);
  p.l = 4;
  EXPECT_EQ(p.bits_per_cell(), 3);
  p.l = 7;
  EXPECT_EQ(p.bits_per_cell(), 3);
  p.l = 8;
  EXPECT_EQ(p.bits_per_cell(), 4);
}

TEST(AttackParams, ToStringMentionsEverything) {
  const selfish::AttackParams p{.p = 0.3, .gamma = 0.25, .d = 3, .f = 2, .l = 4};
  const std::string s = p.to_string();
  EXPECT_NE(s.find("p=0.3"), std::string::npos);
  EXPECT_NE(s.find("gamma=0.25"), std::string::npos);
  EXPECT_NE(s.find("d=3"), std::string::npos);
}

TEST(State, InitialIsCanonicalAllZero) {
  const auto params = params_242();
  const auto s = selfish::State::initial(params);
  EXPECT_TRUE(s.is_canonical(params));
  EXPECT_EQ(s.type, selfish::StepType::kMining);
  EXPECT_EQ(s.owner_bits, 0);
  for (int i = 0; i < params.d; ++i) {
    for (int j = 0; j < params.f; ++j) EXPECT_EQ(s.c[i][j], 0);
  }
}

TEST(State, CanonicalizeSortsRowsDescending) {
  const auto params = params_242();
  selfish::State s;
  s.c[0] = {1, 4, 0, 2, 0, 0};
  s.c[1] = {0, 0, 3, 0, 0, 0};
  s.canonicalize(params);
  EXPECT_EQ(s.c[0][0], 4);
  EXPECT_EQ(s.c[0][1], 2);
  EXPECT_EQ(s.c[0][2], 1);
  EXPECT_EQ(s.c[0][3], 0);
  EXPECT_EQ(s.c[1][0], 3);
  EXPECT_TRUE(s.is_canonical(params));
}

TEST(State, CanonicalizeIsIdempotent) {
  const auto params = params_242();
  support::Rng rng(88);
  for (int trial = 0; trial < 200; ++trial) {
    selfish::State s;
    for (int i = 0; i < params.d; ++i) {
      for (int j = 0; j < params.f; ++j) {
        s.c[i][j] = static_cast<std::uint8_t>(rng.next_below(params.l + 1));
      }
    }
    s.owner_bits = static_cast<std::uint8_t>(
        rng.next_below(1u << (params.d - 1)));
    s.canonicalize(params);
    selfish::State twice = s;
    twice.canonicalize(params);
    EXPECT_EQ(s, twice);
    EXPECT_TRUE(s.is_canonical(params));
  }
}

TEST(State, PackUnpackRoundTrip) {
  const auto params = params_242();
  support::Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    selfish::State s;
    for (int i = 0; i < params.d; ++i) {
      for (int j = 0; j < params.f; ++j) {
        s.c[i][j] = static_cast<std::uint8_t>(rng.next_below(params.l + 1));
      }
    }
    s.owner_bits =
        static_cast<std::uint8_t>(rng.next_below(1u << (params.d - 1)));
    s.type = static_cast<selfish::StepType>(rng.next_below(3));
    s.canonicalize(params);
    const auto key = s.pack(params);
    EXPECT_EQ(selfish::State::unpack(key, params), s);
  }
}

TEST(State, PackIsInjectiveOnDistinctStates) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  selfish::State a, b;
  a.c[0][0] = 1;
  b.c[1][0] = 1;
  EXPECT_NE(a.pack(params), b.pack(params));
  selfish::State c = a, d = a;
  c.type = selfish::StepType::kHonestFound;
  EXPECT_NE(c.pack(params), d.pack(params));
  selfish::State e = a, f = a;
  e.owner_bits = 1;
  EXPECT_NE(e.pack(params), f.pack(params));
}

TEST(State, IsCanonicalRejectsOutOfRange) {
  const auto params = params_242();
  selfish::State s;
  s.c[0][0] = static_cast<std::uint8_t>(params.l + 1);
  EXPECT_FALSE(s.is_canonical(params));
  selfish::State unsorted;
  unsorted.c[0][0] = 1;
  unsorted.c[0][1] = 3;
  EXPECT_FALSE(unsorted.is_canonical(params));
  selfish::State stray;
  stray.c[params.d][0] = 2;  // outside the d×f window
  EXPECT_FALSE(stray.is_canonical(params));
  selfish::State bad_bits;
  bad_bits.owner_bits = 0xff;
  EXPECT_FALSE(bad_bits.is_canonical(params));
}

/// The canonical predicate as a plain walk over every cell.
bool reference_is_canonical(const selfish::State& s,
                            const selfish::AttackParams& params) {
  for (int i = 0; i < selfish::kMaxDepth; ++i) {
    for (int j = 0; j < selfish::kMaxForks; ++j) {
      if (i >= params.d || j >= params.f) {
        if (s.c[i][j] != 0) return false;
      } else {
        if (s.c[i][j] > params.l) return false;
        if (j > 0 && s.c[i][j] > s.c[i][j - 1]) return false;
      }
    }
  }
  return (s.owner_bits >> (params.d - 1)) == 0;
}

TEST(State, IsCanonicalAgreesWithReferenceLoop) {
  // Random states for every valid (d, f, l): canonical ones, then each
  // with one defect a non-canonical state can carry — a stray byte
  // outside the d×f window, an unsorted row, a cell above l, or an owner
  // bit at or above d−1.
  support::Rng rng(2024);
  int configs = 0, canonical = 0, rejected = 0;
  for (int d = 1; d <= selfish::kMaxDepth; ++d) {
    for (int f = 1; f <= selfish::kMaxForks; ++f) {
      for (int l = 1; l <= selfish::kMaxForkLength; ++l) {
        const selfish::AttackParams params{
            .p = 0.3, .gamma = 0.5, .d = d, .f = f, .l = l};
        try {
          params.validate();
        } catch (const support::InvalidArgument&) {
          continue;
        }
        ++configs;
        for (int trial = 0; trial < 25; ++trial) {
          selfish::State s;
          for (int i = 0; i < d; ++i) {
            for (int j = 0; j < f; ++j) {
              s.c[i][j] = static_cast<std::uint8_t>(rng.next_below(l + 1));
            }
          }
          s.owner_bits =
              static_cast<std::uint8_t>(rng.next_below(1u << (d - 1)));
          s.type = static_cast<selfish::StepType>(rng.next_below(3));
          s.canonicalize(params);
          const int i = static_cast<int>(rng.next_below(d));
          const int j = static_cast<int>(rng.next_below(f));
          switch (trial % 5) {
            case 0: break;  // canonical
            case 1: {       // stray byte outside the window
              const int cell = static_cast<int>(
                  rng.next_below(selfish::kMaxDepth * selfish::kMaxForks));
              const int row = cell / selfish::kMaxForks;
              const int col = cell % selfish::kMaxForks;
              if (row < d && col < f) break;  // landed inside: canonical
              s.c[row][col] = static_cast<std::uint8_t>(
                  1 + rng.next_below(255));
              break;
            }
            case 2:  // unsorted row (a no-op when f = 1)
              if (j > 0) {
                s.c[i][j] = static_cast<std::uint8_t>(
                    std::min(s.c[i][j - 1] + 1 + static_cast<int>(
                                 rng.next_below(3)),
                             255));
              }
              break;
            case 3:  // a cell above l
              s.c[i][j] = static_cast<std::uint8_t>(
                  l + 1 + static_cast<int>(rng.next_below(255 - l)));
              break;
            case 4:  // an owner bit at or above d−1
              s.owner_bits |= static_cast<std::uint8_t>(
                  1u << (d - 1 + static_cast<int>(rng.next_below(9 - d))));
              break;
          }
          const bool expected = reference_is_canonical(s, params);
          ASSERT_EQ(s.is_canonical(params), expected)
              << params.to_string() << ' ' << s.to_string(params)
              << " owner_bits=" << static_cast<int>(s.owner_bits);
          ++(expected ? canonical : rejected);
        }
      }
    }
  }
  EXPECT_EQ(configs, 472);
  EXPECT_GE(canonical, configs * 5);
  EXPECT_GE(rejected, configs * 10);
}

TEST(State, OwnershipAccessor) {
  selfish::State s;
  s.owner_bits = 0b101;
  EXPECT_TRUE(s.adversary_owns(1));
  EXPECT_FALSE(s.adversary_owns(2));
  EXPECT_TRUE(s.adversary_owns(3));
}

TEST(State, ToStringIsReadable) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 4};
  selfish::State s;
  s.c[0][0] = 2;
  s.owner_bits = 1;
  s.type = selfish::StepType::kHonestFound;
  const std::string text = s.to_string(params);
  EXPECT_NE(text.find("C=[[2,0],[0,0]]"), std::string::npos);
  EXPECT_NE(text.find("O=[a]"), std::string::npos);
  EXPECT_NE(text.find("type=honest"), std::string::npos);
}

TEST(StepType, Names) {
  EXPECT_STREQ(selfish::to_string(selfish::StepType::kMining), "mining");
  EXPECT_STREQ(selfish::to_string(selfish::StepType::kHonestFound), "honest");
  EXPECT_STREQ(selfish::to_string(selfish::StepType::kAdversaryFound),
               "adversary");
}

}  // namespace
