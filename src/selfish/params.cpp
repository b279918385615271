#include "selfish/params.hpp"

#include <bit>
#include <cstdio>

#include "support/check.hpp"

namespace selfish {

int AttackParams::bits_per_cell() const {
  return std::bit_width(static_cast<unsigned>(l));
}

void AttackParams::validate() const {
  SM_CHECK_INPUT(p >= 0.0 && p <= 1.0, "p out of [0,1]: ", p);
  SM_CHECK_INPUT(gamma >= 0.0 && gamma <= 1.0, "gamma out of [0,1]: ", gamma);
  SM_CHECK_INPUT(d >= 1 && d <= kMaxDepth, "d out of [1,", kMaxDepth, "]: ", d);
  SM_CHECK_INPUT(f >= 1 && f <= kMaxForks, "f out of [1,", kMaxForks, "]: ", f);
  SM_CHECK_INPUT(l >= 1 && l <= kMaxForkLength,
                 "l out of [1,", kMaxForkLength, "]: ", l);
  const int bits = d * f * bits_per_cell() + (d - 1) + 2;
  SM_CHECK_INPUT(bits <= 64, "state does not fit 64 bits (needs ", bits,
                 "); reduce d, f or l");
}

std::string AttackParams::to_string() const {
  char buf[112];
  std::snprintf(buf, sizeof(buf), "p=%.4g gamma=%.4g d=%d f=%d l=%d%s",
                p, gamma, d, f, l, burn_lost_races ? " burn" : "");
  return buf;
}

}  // namespace selfish
