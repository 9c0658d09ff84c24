// Quantizer unit + property tests, including the §4.1 protective-range
// theorem and its counterexample.
#include "quant/quantize.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "quant/w4a16.h"

namespace qserve {
namespace {

Tensor random_tensor(int64_t n, int64_t k, uint64_t seed, float scale = 1.0f,
                     float df = 5.0f) {
  Rng rng(seed);
  Tensor t({n, k});
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.heavy_tailed(scale, df);
  return t;
}

// --- W8 per-channel ------------------------------------------------------------

TEST(W8PerChannel, CodesInRangeAndLowError) {
  const Tensor w = random_tensor(16, 64, 1);
  const auto q = quantize_w8_per_channel(w);
  for (int64_t i = 0; i < q.qw.numel(); ++i) {
    EXPECT_GE(q.qw[i], -127);
    EXPECT_LE(q.qw[i], 127);
  }
  const Tensor deq = dequantize(q);
  // Max error bounded by half a quantization step per channel.
  for (int64_t r = 0; r < w.rows(); ++r)
    for (int64_t c = 0; c < w.cols(); ++c)
      EXPECT_LE(std::abs(w.at2(r, c) - deq.at2(r, c)), 0.51f * q.s[r] + 1e-6f);
}

TEST(W8PerChannel, ZeroRowHandled) {
  Tensor w({2, 8});  // all zeros
  const auto q = quantize_w8_per_channel(w);
  const Tensor deq = dequantize(q);
  for (int64_t i = 0; i < deq.numel(); ++i) EXPECT_EQ(deq[i], 0.0f);
}

// --- W4 per-channel ------------------------------------------------------------

TEST(W4PerChannel, CodesAndZeroPointsInRange) {
  const Tensor w = random_tensor(8, 32, 2);
  const auto q = quantize_w4_per_channel(w);
  for (int64_t r = 0; r < q.n(); ++r) {
    EXPECT_LE(q.z[r], 15);
    for (int64_t c = 0; c < q.k(); ++c) EXPECT_LE(get_u4(q.qw, r, c), 15);
  }
}

TEST(W4PerChannel, AsymmetricRangeCoversSkewedRows) {
  // A strictly positive row must still quantize well (symmetric INT4 would
  // waste half its range).
  Tensor w({1, 16});
  for (int64_t c = 0; c < 16; ++c) w[c] = 1.0f + 0.1f * float(c);
  const auto q = quantize_w4_per_channel(w);
  const Tensor deq = dequantize(q);
  for (int64_t c = 0; c < 16; ++c)
    EXPECT_NEAR(deq[c], w[c], 0.51f * q.s[0] + 1e-5f);
}

TEST(W4PerChannel, SzwEqualsZTimesScale) {
  const Tensor w = random_tensor(8, 32, 3);
  const auto q = quantize_w4_per_channel(w);
  for (int64_t r = 0; r < q.n(); ++r)
    EXPECT_NEAR(q.szw[r], float(q.z[r]) * q.s[r], 1e-2f * q.s[r] + 1e-6f);
}

// --- progressive group quantization ------------------------------------------------

class ProgressiveProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProgressiveProperty, Level1CodesNeverLeaveInt8WithProtectiveRange) {
  // The §4.1 theorem: with level-1 range [-119,119], the level-2 round trip
  // (q-z)*s1 always stays within [-128, 127].
  const Tensor w = random_tensor(16, 256, GetParam(), 0.5f, 3.0f);
  ProgressiveOptions opt;
  opt.group = 64;
  const auto q = quantize_progressive(w, opt);
  const I32Tensor codes = dequantize_level1_codes(q);
  for (int64_t i = 0; i < codes.numel(); ++i) {
    EXPECT_GE(codes[i], -128);
    EXPECT_LE(codes[i], 127);
  }
}

TEST_P(ProgressiveProperty, ScalesAndZerosInHardwareRanges) {
  const Tensor w = random_tensor(8, 256, GetParam() + 100, 2.0f);
  const auto q = quantize_progressive(w, {.group = 128});
  for (int64_t i = 0; i < q.s1.numel(); ++i) {
    EXPECT_GE(q.s1[i], 1);
    EXPECT_LE(q.s1[i], 17);
    EXPECT_LE(q.z[i], 15);
  }
}

TEST_P(ProgressiveProperty, ReconstructionErrorBounded) {
  const Tensor w = random_tensor(8, 256, GetParam() + 200);
  const auto q = quantize_progressive(w, {.group = 128});
  const Tensor deq = dequantize(q);
  for (int64_t r = 0; r < w.rows(); ++r) {
    // Two rounding stages plus zero-point rounding: conservatively bounded
    // by (1.5*s1 + 1) quantization steps of the level-1 scale.
    for (int64_t c = 0; c < w.cols(); ++c) {
      const int s1 = q.s1.at2(r, c / q.group);
      EXPECT_LE(std::abs(w.at2(r, c) - deq.at2(r, c)),
                (1.5f * float(s1) + 1.0f) * q.s0[r] + 1e-5f)
          << "row " << r << " col " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgressiveProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Progressive, PaperCounterexampleOverflowsWithoutProtectiveRange) {
  // §4.1's worked example: level-1 codes spanning [-113, 120] yield s1=16,
  // z=7, and 120 dequantizes to (15-7)*16 = 128 > 127. Reproduce it by
  // constructing weights that hit those codes with level1_range=127.
  Tensor w({1, 128});
  // Make abs-max map to 127 exactly: w = code * (amax/127).
  const float s = 1.0f / 127.0f;
  for (int64_t c = 0; c < 128; ++c) w[c] = float(-113 + (c % 8)) * s;
  w[64] = 120.0f * s;
  w[0] = -113.0f * s;
  w[127] = 127.0f * s;  // force the level-1 scale to amax/127

  ProgressiveOptions naive;
  naive.group = 64;
  naive.level1_range = 127;
  const auto q = quantize_progressive(w, naive);
  const I32Tensor codes = dequantize_level1_codes(q);
  int32_t worst = 0;
  for (int64_t i = 0; i < codes.numel(); ++i)
    worst = std::max(worst, std::abs(codes[i]));
  EXPECT_GT(worst, 127) << "naive range should overflow INT8";

  ProgressiveOptions prot;
  prot.group = 64;
  const auto q2 = quantize_progressive(w, prot);
  const I32Tensor codes2 = dequantize_level1_codes(q2);
  for (int64_t i = 0; i < codes2.numel(); ++i) {
    EXPECT_GE(codes2[i], -128);
    EXPECT_LE(codes2[i], 127);
  }
}

TEST(Progressive, GroupSizeMustDivideK) {
  const Tensor w = random_tensor(4, 100, 9);
  EXPECT_THROW(quantize_progressive(w, {.group = 64}), CheckError);
}

TEST(Progressive, ConstantGroupQuantizesExactly) {
  Tensor w = Tensor::full({2, 128}, 0.5f);
  const auto q = quantize_progressive(w, {.group = 128});
  const Tensor deq = dequantize(q);
  for (int64_t i = 0; i < deq.numel(); ++i) EXPECT_NEAR(deq[i], 0.5f, 0.01f);
}

// --- two-level baseline (VSQuant/DoubleQuant) ---------------------------------------

TEST(TwoLevelBaseline, GroupDequantLeavesInt8Range) {
  // The §4.1 distinction: in the VSQuant/DoubleQuant flow, (q-z)*s1 is NOT
  // bounded by the INT8 range (s1 quantizes an arbitrary FP scale, reaching
  // 255), so the intermediate cannot feed INT8 tensor cores. Progressive
  // quantization's protective construction is what makes that possible.
  const Tensor w = random_tensor(8, 512, 11, 1.0f, 3.0f);
  const auto q = quantize_two_level_baseline(w, 128);
  const U8Tensor codes = unpack_u4(q.qw);
  int out_of_int8 = 0;
  for (int64_t r = 0; r < codes.rows(); ++r) {
    for (int64_t c = 0; c < codes.cols(); ++c) {
      const int64_t g = c / q.group;
      const int prod = (int(codes.at2(r, c)) - int(q.z.at2(r, g))) *
                       int(q.s1.at2(r, g));
      if (prod < -128 || prod > 127) ++out_of_int8;
    }
  }
  EXPECT_GT(out_of_int8, 0);
}

TEST(TwoLevelBaseline, ReconstructionComparableToProgressive) {
  const Tensor w = random_tensor(8, 256, 12);
  const double mse_prog = mse(w, dequantize(quantize_progressive(w, {})));
  const double mse_base = mse(w, dequantize(quantize_two_level_baseline(w, 128)));
  // Both are 4-bit schemes; errors must be the same order of magnitude.
  EXPECT_LT(mse_prog, mse_base * 4.0);
  EXPECT_LT(mse_base, mse_prog * 4.0);
}

// --- activations ------------------------------------------------------------------

TEST(ActQuant, PerTokenSymmetricRoundTrip) {
  const Tensor x = random_tensor(6, 64, 13, 3.0f);
  const auto q = quantize_acts_per_token(x);
  const Tensor deq = dequantize(q);
  for (int64_t t = 0; t < x.rows(); ++t)
    for (int64_t c = 0; c < x.cols(); ++c)
      EXPECT_LE(std::abs(x.at2(t, c) - deq.at2(t, c)), 0.51f * q.s[t] + 1e-5f);
}

TEST(ActQuant, TokenSumMatchesUnquantizedInput) {
  // tX must be the sum of the *unquantized* activations (Eq. 13 replaces
  // QX·SX with X).
  const Tensor x = random_tensor(4, 32, 14);
  const auto q = quantize_acts_per_token(x);
  for (int64_t t = 0; t < x.rows(); ++t) {
    float sum = 0;
    for (int64_t c = 0; c < x.cols(); ++c) sum += x.at2(t, c);
    EXPECT_NEAR(q.token_sum[t], sum, std::abs(sum) * 1e-3f + 1e-2f);
  }
}

TEST(ActQuant, HalfwayProductsRoundAwayFromZero) {
  // abs-max 127 * 2^-3 (INT8) or 7 * 2^-3 (INT4) makes the scale 2^-3, so
  // x = (n + 0.5) * 2^-3 quantizes from exactly n + 0.5: away from zero,
  // and ±0 to 0. 35 channels leave a vector tail on every ISA.
  for (const bool int4 : {false, true}) {
    const float qmax = int4 ? 7.0f : 127.0f;
    Tensor x({2, 35});
    for (int64_t c = 0; c < 35; ++c) {
      const float n = float(c % 7);
      x.at2(0, c) = (c % 2 ? -1.0f : 1.0f) * (n + 0.5f) * 0.125f;
      x.at2(1, c) = c % 2 ? -0.0f : 0.0f;
    }
    x.at2(0, 34) = qmax * 0.125f;
    x.at2(1, 34) = -qmax * 0.125f;
    const auto q = int4 ? quantize_acts_per_token_int4(x)
                        : quantize_acts_per_token(x);
    for (int64_t t = 0; t < 2; ++t) EXPECT_EQ(0.125f, q.s[t]);
    for (int64_t c = 0; c < 34; ++c) {
      const int away = int(c % 7) + 1;
      EXPECT_EQ(c % 2 ? -away : away, q.q.at2(0, c)) << "c=" << c;
      EXPECT_EQ(0, q.q.at2(1, c)) << "c=" << c;
    }
    EXPECT_EQ(int(qmax), q.q.at2(0, 34));
    EXPECT_EQ(-int(qmax), q.q.at2(1, 34));
  }
}

TEST(ActQuant, Int4CodesInRange) {
  const Tensor x = random_tensor(4, 32, 15);
  const auto q = quantize_acts_per_token_int4(x);
  for (int64_t i = 0; i < q.q.numel(); ++i) {
    EXPECT_GE(q.q[i], -7);
    EXPECT_LE(q.q[i], 7);
  }
}

// --- W4A16 ------------------------------------------------------------------------

TEST(W4A16, GroupScalesAreFp16Values) {
  const Tensor w = random_tensor(8, 256, 16);
  const auto q = quantize_w4a16(w, 128);
  for (int64_t i = 0; i < q.s.numel(); ++i)
    EXPECT_EQ(q.s[i], to_half_precision(q.s[i]));
}

TEST(W4A16, BetterThanPerChannelW4) {
  // Per-group quantization must beat per-channel on heavy-tailed weights.
  const Tensor w = random_tensor(16, 512, 17, 1.0f, 3.0f);
  const double mse_group = mse(w, dequantize(quantize_w4a16(w, 128)));
  const double mse_chan = mse(w, dequantize(quantize_w4_per_channel(w)));
  EXPECT_LT(mse_group, mse_chan);
}

// --- W4A4 -------------------------------------------------------------------------

TEST(W4A4, SymmetricCodesInRange) {
  const Tensor w = random_tensor(8, 256, 18);
  const auto q = quantize_w4a4_per_group(w, 128);
  for (int64_t i = 0; i < q.qw.numel(); ++i) {
    EXPECT_GE(q.qw[i], -7);
    EXPECT_LE(q.qw[i], 7);
  }
}

}  // namespace
}  // namespace qserve
