#include "selfish/state.hpp"

#include <bit>
#include <sstream>

#include "support/check.hpp"

namespace selfish {

namespace {

/// c's bytes as 8-byte words.
constexpr int kCellWords = kMaxDepth * kMaxForks / 8;
static_assert(sizeof(State::c) == kCellWords * 8);

using CellWords = std::array<std::uint64_t, kCellWords>;

/// kOutsideWindow[d][f] has 0xff in every byte of c outside rows [0, d)
/// and columns [0, f), and 0 inside.
constexpr auto kOutsideWindow = [] {
  std::array<std::array<CellWords, kMaxForks + 1>, kMaxDepth + 1> masks{};
  for (int d = 0; d <= kMaxDepth; ++d) {
    for (int f = 0; f <= kMaxForks; ++f) {
      std::array<std::uint8_t, kMaxDepth * kMaxForks> bytes{};
      for (int i = 0; i < kMaxDepth; ++i) {
        for (int j = 0; j < kMaxForks; ++j) {
          if (i >= d || j >= f) bytes[i * kMaxForks + j] = 0xff;
        }
      }
      masks[d][f] = std::bit_cast<CellWords>(bytes);
    }
  }
  return masks;
}();

}  // namespace

const char* to_string(StepType type) {
  switch (type) {
    case StepType::kMining: return "mining";
    case StepType::kHonestFound: return "honest";
    case StepType::kAdversaryFound: return "adversary";
  }
  return "?";
}

State State::initial(const AttackParams& params) {
  params.validate();
  return State{};  // zero forks, all-honest ownership, mining
}

void State::canonicalize(const AttackParams& params) {
  for (int i = 0; i < params.d; ++i) {
    auto& row = c[i];
    // Insertion sort, descending; rows have at most kMaxForks entries.
    for (int j = 1; j < params.f; ++j) {
      const std::uint8_t v = row[j];
      int pos = j;
      while (pos > 0 && row[pos - 1] < v) {
        row[pos] = row[pos - 1];
        --pos;
      }
      row[pos] = v;
    }
  }
}

bool State::is_canonical(const AttackParams& params) const {
  // Cells outside the d×f window must be zero: one masked OR over c's
  // six 8-byte words.
  const auto words = std::bit_cast<CellWords>(c);
  const auto& outside = kOutsideWindow[params.d][params.f];
  std::uint64_t stray = 0;
  for (int w = 0; w < kCellWords; ++w) stray |= words[w] & outside[w];
  bool bad = stray != 0 || (owner_bits >> (params.d - 1)) != 0;
  // Inside it every row descends from a head ≤ l, so every cell is ≤ l.
  for (int i = 0; i < params.d; ++i) {
    const auto& row = c[i];
    bad |= row[0] > params.l;
    for (int j = 1; j < params.f; ++j) bad |= row[j] > row[j - 1];
  }
  return !bad;
}

std::uint64_t State::pack(const AttackParams& params) const {
  const int bits = params.bits_per_cell();
  std::uint64_t key = 0;
  int shift = 0;
  for (int i = 0; i < params.d; ++i) {
    for (int j = 0; j < params.f; ++j) {
      key |= static_cast<std::uint64_t>(c[i][j]) << shift;
      shift += bits;
    }
  }
  key |= static_cast<std::uint64_t>(owner_bits) << shift;
  shift += params.d - 1;
  key |= static_cast<std::uint64_t>(type) << shift;
  return key;
}

State State::unpack(std::uint64_t key, const AttackParams& params) {
  const int bits = params.bits_per_cell();
  const std::uint64_t cell_mask = (1ull << bits) - 1;
  State s;
  int shift = 0;
  for (int i = 0; i < params.d; ++i) {
    for (int j = 0; j < params.f; ++j) {
      s.c[i][j] = static_cast<std::uint8_t>((key >> shift) & cell_mask);
      SM_ENSURE(s.c[i][j] <= params.l, "unpacked fork length out of range");
      shift += bits;
    }
  }
  const std::uint64_t owner_mask = (1ull << (params.d - 1)) - 1;
  s.owner_bits = static_cast<std::uint8_t>((key >> shift) & owner_mask);
  shift += params.d - 1;
  const std::uint64_t type_raw = (key >> shift) & 0x3u;
  SM_ENSURE(type_raw <= 2, "unpacked step type out of range");
  s.type = static_cast<StepType>(type_raw);
  return s;
}

std::string State::to_string(const AttackParams& params) const {
  std::ostringstream os;
  os << "C=[";
  for (int i = 0; i < params.d; ++i) {
    if (i) os << ',';
    os << '[';
    for (int j = 0; j < params.f; ++j) {
      if (j) os << ',';
      os << static_cast<int>(c[i][j]);
    }
    os << ']';
  }
  os << "] O=[";
  for (int depth = 1; depth <= params.d - 1; ++depth) {
    if (depth > 1) os << ',';
    os << (adversary_owns(depth) ? 'a' : 'h');
  }
  os << "] type=" << selfish::to_string(type);
  return os.str();
}

}  // namespace selfish
