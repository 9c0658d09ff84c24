#include "common/half.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace qserve {
namespace {

TEST(Half, ExactSmallIntegers) {
  // All integers up to 2048 are exactly representable in binary16.
  for (int i = -2048; i <= 2048; ++i) {
    EXPECT_EQ(float(Half(float(i))), float(i)) << i;
  }
}

TEST(Half, RoundTripPreservesRepresentableValues) {
  // Every binary16 bit pattern that is finite must round-trip exactly.
  for (uint32_t bits = 0; bits < 0x10000u; ++bits) {
    const Half h = Half::from_bits(static_cast<uint16_t>(bits));
    const float f = float(h);
    if (std::isnan(f)) continue;
    if (std::isinf(f)) continue;
    EXPECT_EQ(Half(f).bits(), bits) << "bits=" << bits;
  }
}

TEST(Half, RoundsToNearestEven) {
  // 1.0 + 2^-11 is exactly halfway between 1.0 and the next half; ties to
  // even keep 1.0.
  EXPECT_EQ(float(Half(1.0f + 0.00048828125f)), 1.0f);
  // 1.0 + 3*2^-11 ties between mantissa 1 (odd) and 2 (even): even wins.
  EXPECT_EQ(float(Half(1.0f + 3 * 0.00048828125f)), 1.0f + 2 * 0.0009765625f);
  // A value just above the tie rounds up off the tie as usual.
  EXPECT_EQ(float(Half(1.0f + 3.1f * 0.00048828125f)),
            1.0f + 2 * 0.0009765625f);
}

TEST(Half, OverflowToInfinity) {
  EXPECT_TRUE(std::isinf(float(Half(70000.0f))));
  EXPECT_TRUE(std::isinf(float(Half(-70000.0f))));
  EXPECT_EQ(float(Half(65504.0f)), 65504.0f);  // max normal half
}

TEST(Half, SubnormalsPreserved) {
  const float smallest = 5.960464477539063e-08f;  // 2^-24
  EXPECT_EQ(float(Half(smallest)), smallest);
  EXPECT_EQ(float(Half(smallest / 2.0f)), 0.0f);  // underflow
}

TEST(Half, NegativeZeroKeepsSign) {
  EXPECT_TRUE(std::signbit(float(Half(-0.0f))));
}

TEST(Half, NanPropagates) {
  EXPECT_TRUE(std::isnan(float(Half(std::nanf("")))));
}

TEST(Half, PrecisionLossMatchesEpsilon) {
  // Relative error of a half round-trip is bounded by 2^-11.
  for (float v : {0.1f, 3.14159f, 123.456f, 9999.5f, 1e-3f}) {
    const float r = to_half_precision(v);
    EXPECT_LE(std::abs(r - v) / v, 1.0f / 2048.0f) << v;
  }
}

TEST(Half, RoundTripHelperMatchesHalfBitForBit) {
  // to_half_precision may take a hardware conversion path; it must give
  // float(Half(f)) bit for bit. Check every float whose low 13 bits sit at
  // or next to a binary16 rounding boundary (all exponents, both signs, so
  // normals, subnormals, overflow, infinities and NaNs), plus a stride
  // through every other pattern.
  const auto same = [](uint32_t u) {
    const float f = detail::bit_cast<float>(u);
    return detail::bit_cast<uint32_t>(to_half_precision(f)) ==
           detail::bit_cast<uint32_t>(float(Half(f)));
  };
  int64_t bad = 0;
  for (uint32_t hi = 0; hi < (1u << 19); ++hi)
    for (uint32_t lo : {0x0000u, 0x0001u, 0x0FFFu, 0x1000u, 0x1001u, 0x1FFFu})
      bad += same((hi << 13) | lo) ? 0 : 1;
  for (uint64_t u = 0; u < (1ull << 32); u += 4099)
    bad += same(static_cast<uint32_t>(u)) ? 0 : 1;
  EXPECT_EQ(bad, 0);
}

TEST(Half, CompoundAssignRoundsEachStep) {
  Half h(1.0f);
  h += 0.0004f;  // below half precision at 1.0 -> rounds away
  EXPECT_EQ(float(h), 1.0f);
  h += 1.0f;
  EXPECT_EQ(float(h), 2.0f);
}

}  // namespace
}  // namespace qserve
