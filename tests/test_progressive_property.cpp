// Exhaustive / randomized property tests for the progressive quantization
// theorems the QServe kernels rely on (§4.1, §5.2.3):
//   T1: level-2 round trip stays in INT8  (protective range theorem)
//   T2: q * s1 <= 255                      (RLP multiply is lane-safe)
//   T3: z * s1 <= 127                      (negated zero-point term is SINT8)
// over many weight distributions, group sizes and seeds — plus an
// end-to-end check that every fragment of the reordered weight stream obeys
// the SWAR-safety preconditions.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "kernels/rlp.h"
#include "quant/quantize.h"

namespace qserve {
namespace {

enum class Dist { kNormal, kHeavyTail, kUniform, kBimodal, kSparseOutlier };

Tensor make_weights(Dist dist, int64_t n, int64_t k, uint64_t seed) {
  Rng rng(seed);
  Tensor w({n, k});
  switch (dist) {
    case Dist::kNormal:
      for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal();
      break;
    case Dist::kHeavyTail:
      for (int64_t i = 0; i < w.numel(); ++i)
        w[i] = rng.heavy_tailed(1.0f, 3.0f);
      break;
    case Dist::kUniform:
      for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.uniform(-2, 2);
      break;
    case Dist::kBimodal:
      for (int64_t i = 0; i < w.numel(); ++i)
        w[i] = rng.normal((i % 2) ? 3.0f : -3.0f, 0.3f);
      break;
    case Dist::kSparseOutlier:
      for (int64_t i = 0; i < w.numel(); ++i)
        w[i] = rng.normal(0.0f, 0.05f);
      for (int64_t r = 0; r < n; ++r)
        w.at2(r, (r * 37) % k) = (r % 2 ? 30.0f : -25.0f);
      break;
  }
  return w;
}

class ProgressiveTheorems
    : public ::testing::TestWithParam<std::tuple<Dist, int, uint64_t>> {};

TEST_P(ProgressiveTheorems, AllThreeSafetyBoundsHold) {
  const auto [dist, group, seed] = GetParam();
  const Tensor w = make_weights(dist, 16, 512, seed);
  ProgressiveOptions opt;
  opt.group = group;
  const auto q = quantize_progressive(w, opt);

  for (int64_t r = 0; r < q.n(); ++r) {
    for (int64_t c = 0; c < q.k(); ++c) {
      const int64_t g = c / q.group;
      const int s1 = q.s1.at2(r, g);
      const int z = q.z.at2(r, g);
      const int code = get_u4(q.qw, r, c);
      // T2: the 4-way multiply must not overflow a byte lane.
      ASSERT_LE(code * s1, 255) << "T2 at (" << r << "," << c << ")";
      // T3: the broadcast zero-point product must fit SINT8.
      ASSERT_LE(z * s1, 127) << "T3 at (" << r << "," << c << ")";
      // T1: the reconstructed level-1 code must fit SINT8.
      const int level1 = (code - z) * s1;
      ASSERT_GE(level1, -128) << "T1 at (" << r << "," << c << ")";
      ASSERT_LE(level1, 127) << "T1 at (" << r << "," << c << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProgressiveTheorems,
    ::testing::Combine(::testing::Values(Dist::kNormal, Dist::kHeavyTail,
                                         Dist::kUniform, Dist::kBimodal,
                                         Dist::kSparseOutlier),
                       ::testing::Values(32, 64, 128),
                       ::testing::Values(1u, 2u, 3u)));

class SwarMatchesScalar
    : public ::testing::TestWithParam<std::tuple<Dist, uint64_t>> {};

TEST_P(SwarMatchesScalar, PackedDequantEqualsExactArithmetic) {
  // Feed real quantizer outputs through the packed SWAR dequant: every
  // 4-lane word must reproduce exact integer arithmetic.
  const auto [dist, seed] = GetParam();
  const Tensor w = make_weights(dist, 8, 256, seed + 100);
  const auto q = quantize_progressive(w, {.group = 64});
  for (int64_t r = 0; r < q.n(); ++r) {
    for (int64_t c = 0; c + 4 <= q.k(); c += 4) {
      const int64_t g = c / q.group;
      const uint8_t s1 = q.s1.at2(r, g);
      const uint8_t z = q.z.at2(r, g);
      uint32_t lanes = 0;
      for (int l = 0; l < 4; ++l)
        lanes |= uint32_t(get_u4(q.qw, r, c + l)) << (8 * l);
      const uint32_t out = dequant4_sub_after_mul(lanes, s1, z);
      for (int l = 0; l < 4; ++l) {
        const int expect = (int(get_u4(q.qw, r, c + l)) - int(z)) * int(s1);
        ASSERT_EQ(int(lane_s8(out, l)), expect)
            << "(" << r << "," << c + l << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SwarMatchesScalar,
    ::testing::Combine(::testing::Values(Dist::kNormal, Dist::kHeavyTail,
                                         Dist::kSparseOutlier),
                       ::testing::Values(7u, 8u)));

// Exhaustive RLP check over the full reachable (s1, z, q) space: for every
// s1 in [1,17] and z in [0,15] with z*s1 <= 127, all codes q whose products
// stay in the guaranteed ranges must dequantize exactly.
TEST(RlpExhaustive, AllReachableParameterTriplesAreSafe) {
  int64_t checked = 0;
  for (int s1 = 1; s1 <= 17; ++s1) {
    for (int z = 0; z <= 15; ++z) {
      if (z * s1 > 127) continue;  // T3 excludes these
      for (int code = 0; code <= 15; ++code) {
        if (code * s1 > 255) continue;          // T2 excludes these
        const int level1 = (code - z) * s1;
        if (level1 < -128 || level1 > 127) continue;  // T1 excludes these
        const uint32_t lanes = broadcast4(static_cast<uint8_t>(code)) &
                               0x0F0F0F0Fu;
        const uint32_t out = dequant4_sub_after_mul(
            lanes, static_cast<uint8_t>(s1), static_cast<uint8_t>(z));
        for (int l = 0; l < 4; ++l)
          ASSERT_EQ(int(lane_s8(out, l)), level1)
              << "s1=" << s1 << " z=" << z << " q=" << code;
        ++checked;
      }
    }
  }
  // The reachable space is large — make sure we actually exercised it.
  EXPECT_GT(checked, 1500);
}

// The protective bound is tight: range 120 can already overflow.
TEST(RlpExhaustive, Range120AdmitsOverflow) {
  bool found_overflow = false;
  for (uint64_t seed = 1; seed <= 30 && !found_overflow; ++seed) {
    Rng rng(seed);
    Tensor w({1, 64});
    for (int64_t i = 0; i < 64; ++i) w[i] = rng.heavy_tailed(1.0f, 2.0f);
    ProgressiveOptions opt;
    opt.group = 64;
    opt.level1_range = 125;  // > 119.5 bound
    const auto q = quantize_progressive(w, opt);
    const I32Tensor codes = dequantize_level1_codes(q);
    for (int64_t i = 0; i < codes.numel(); ++i)
      if (codes[i] < -128 || codes[i] > 127) found_overflow = true;
  }
  EXPECT_TRUE(found_overflow)
      << "ranges beyond 119 should eventually overflow INT8";
}

// Accuracy monotonicity: smaller groups can only help reconstruction.
TEST(ProgressiveMonotone, FinerGroupsReduceError) {
  const Tensor w = make_weights(Dist::kHeavyTail, 16, 512, 9);
  double prev = 1e30;
  for (int group : {512, 256, 128, 64, 32}) {
    const double err = mse(w, dequantize(quantize_progressive(
                               w, {.group = group})));
    EXPECT_LE(err, prev * 1.02) << group;  // small slack for rounding luck
    prev = err;
  }
}

}  // namespace
}  // namespace qserve
