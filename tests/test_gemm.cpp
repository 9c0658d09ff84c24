// GEMM kernel correctness: each quantized pipeline against its mathematical
// reference, and the zero-point epilogue fusion identity (Eq. 12/13).
#include "kernels/gemm.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "kernels/cpu/microkernel.h"
#include "quant/quantize.h"

namespace qserve {
namespace {

// The INT8-path GEMM as the model runs it: weights packed for the active
// ISA's microkernel, then the blocked driver.
template <typename Weights>
Tensor packed_gemm(const QuantizedActs& x, const Weights& w) {
  const int nr = cpu::microkernel_for(cpu::active_isa()).nr;
  return gemm_blocked(x, pack_gemm_b(w, nr));
}

Tensor random_tensor(int64_t n, int64_t k, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  Tensor t({n, k});
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.heavy_tailed(scale);
  return t;
}

TEST(GemmRef, MatchesManualDotProduct) {
  Tensor x({2, 3}), w({2, 3});
  for (int64_t i = 0; i < 6; ++i) {
    x[i] = float(i + 1);
    w[i] = float(6 - i);
  }
  const Tensor y = gemm_f32_ref(x, w);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 1 * 6 + 2 * 5 + 3 * 4);
  EXPECT_FLOAT_EQ(y.at2(1, 1), 4 * 3 + 5 * 2 + 6 * 1);
}

TEST(GemmI8, Int32AccumulationExact) {
  // Worst-case magnitude accumulation must not overflow int32 for k=4096:
  // 127*127*4096 < 2^31.
  I8Tensor x({1, 4096}), w({1, 4096});
  for (int64_t i = 0; i < 4096; ++i) {
    x[i] = 127;
    w[i] = 127;
  }
  const I32Tensor y = gemm_i8i8_i32(x, w);
  EXPECT_EQ(y[0], 127 * 127 * 4096);
}

TEST(GemmW8A8, CloseToFp32Reference) {
  const Tensor x = random_tensor(4, 128, 1);
  const Tensor w = random_tensor(16, 128, 2);
  const Tensor ref = gemm_f32_ref(x, w);
  const Tensor y = packed_gemm(quantize_acts_per_token(x),
                               quantize_w8_per_channel(w));
  // W8A8 per-channel+per-token is near-lossless.
  for (int64_t i = 0; i < y.numel(); ++i)
    EXPECT_NEAR(y[i], ref[i], 0.05f * std::abs(ref[i]) + 0.3f);
}

TEST(GemmW8A8, ExactlyEqualsIntegerEpilogueFormula) {
  const Tensor x = random_tensor(3, 64, 3);
  const Tensor w = random_tensor(8, 64, 4);
  const auto qx = quantize_acts_per_token(x);
  const auto qw = quantize_w8_per_channel(w);
  const Tensor y = packed_gemm(qx, qw);
  const I32Tensor acc = gemm_i8i8_i32(qx.q, qw.qw);
  for (int64_t t = 0; t < y.rows(); ++t)
    for (int64_t r = 0; r < y.cols(); ++r)
      EXPECT_EQ(y.at2(t, r),
                to_half_precision(float(acc.at2(t, r)) * qx.s[t] * qw.s[r]));
}

// --- W4A8 per-channel: epilogue zero-point fusion ---------------------------------

TEST(GemmW4A8PerChannel, EpilogueFusionMatchesInLoopSubtraction) {
  // Eq. 12: MAC'ing raw UINT4 codes then subtracting tX*(z*s) in the
  // epilogue equals dequantizing (q - z) inside the loop.
  const Tensor x = random_tensor(4, 96, 5);
  const Tensor w = random_tensor(12, 96, 6);
  const auto qx = quantize_acts_per_token(x);
  const auto qw = quantize_w4_per_channel(w);
  const Tensor fused = packed_gemm(qx, qw);

  // In-loop variant: integer (q - z) MACs, epilogue outer-product scaling,
  // but using the *quantized* activation path for the zero-point term too.
  for (int64_t t = 0; t < fused.rows(); ++t) {
    for (int64_t r = 0; r < fused.cols(); ++r) {
      int32_t acc = 0;
      for (int64_t c = 0; c < 96; ++c)
        acc += int32_t(qx.q.at2(t, c)) *
               (int32_t(get_u4(qw.qw, r, c)) - int32_t(qw.z[r]));
      const float exact = float(acc) * qx.s[t] * qw.s[r];
      // The fused kernel replaces sum(QX*SX) with the unquantized token sum
      // tX (Eq. 13) — a deliberate approximation whose error is bounded by
      // the activation rounding (<= 0.5*sx per element) times z*s.
      EXPECT_NEAR(fused.at2(t, r), exact,
                  std::abs(qw.szw[r]) * 0.51f * qx.s[t] * 96.0f +
                      0.02f * std::abs(exact) + 0.2f);
    }
  }
}

TEST(GemmW4A8PerChannel, CloseToFp32Reference) {
  const Tensor x = random_tensor(4, 128, 7);
  const Tensor w = random_tensor(16, 128, 8, 0.2f);
  const Tensor ref = gemm_f32_ref(x, w);
  const Tensor y =
      packed_gemm(quantize_acts_per_token(x), quantize_w4_per_channel(w));
  double err = 0, mag = 0;
  for (int64_t i = 0; i < y.numel(); ++i) {
    err += std::abs(y[i] - ref[i]);
    mag += std::abs(ref[i]);
  }
  EXPECT_LT(err / mag, 0.15);  // 4-bit weights: coarse but correlated
}

// --- W4A8 per-group: progressive dequant in main loop ------------------------------

TEST(GemmW4A8PerGroup, BitExactAgainstLevel1CodeGemm) {
  const Tensor x = random_tensor(5, 256, 9);
  const Tensor w = random_tensor(8, 256, 10);
  const auto qx = quantize_acts_per_token(x);
  const auto qw = quantize_progressive(w, {.group = 128});
  const Tensor y = packed_gemm(qx, qw);

  // Reference: dequantize level-2 -> level-1 int codes, int GEMM, epilogue.
  const I32Tensor codes = dequantize_level1_codes(qw);
  I8Tensor wi8({qw.n(), qw.k()});
  for (int64_t i = 0; i < codes.numel(); ++i) {
    ASSERT_GE(codes[i], -128);
    ASSERT_LE(codes[i], 127);
    wi8[i] = static_cast<int8_t>(codes[i]);
  }
  const I32Tensor acc = gemm_i8i8_i32(qx.q, wi8);
  for (int64_t t = 0; t < y.rows(); ++t)
    for (int64_t r = 0; r < y.cols(); ++r)
      EXPECT_EQ(y.at2(t, r), to_half_precision(float(acc.at2(t, r)) *
                                               qx.s[t] * qw.s0[r]));
}

class GemmGroupSweep : public ::testing::TestWithParam<int> {};

TEST_P(GemmGroupSweep, PerGroupBeatsPerChannelAccuracy) {
  const int group = GetParam();
  const Tensor x = random_tensor(4, 512, 13);
  const Tensor w = random_tensor(16, 512, 14, 1.0f);
  const Tensor ref = gemm_f32_ref(x, w);
  const Tensor yg = packed_gemm(quantize_acts_per_token(x),
                                quantize_progressive(w, {.group = group}));
  const Tensor yc = packed_gemm(quantize_acts_per_token(x),
                                quantize_w4_per_channel(w));
  EXPECT_LT(mse(yg, ref), mse(yc, ref));
}

INSTANTIATE_TEST_SUITE_P(Groups, GemmGroupSweep,
                         ::testing::Values(32, 64, 128, 256));

// --- W4A4 Atom path -----------------------------------------------------------------

TEST(GemmW4A4, MatchesDequantizedReferenceClosely) {
  const Tensor x = random_tensor(4, 256, 15, 0.5f);
  const Tensor w = random_tensor(8, 256, 16, 0.3f);
  const auto qx = quantize_acts_per_token_int4(x);
  const auto qw = quantize_w4a4_per_group(w, 128);
  const Tensor y = gemm_w4a4_atom(qx, qw);
  const Tensor ref = gemm_f32_ref(dequantize(qx), dequantize(qw));
  for (int64_t i = 0; i < y.numel(); ++i)
    EXPECT_NEAR(y[i], ref[i], 0.01f * std::abs(ref[i]) + 0.05f);
}

TEST(GemmW4A4, LessAccurateThanW4A8) {
  // The headline accuracy claim at kernel level: INT4 activations hurt.
  const Tensor x = random_tensor(8, 512, 17);
  const Tensor w = random_tensor(16, 512, 18);
  const Tensor ref = gemm_f32_ref(x, w);
  const double e44 = mse(gemm_w4a4_atom(quantize_acts_per_token_int4(x),
                                        quantize_w4a4_per_group(w, 128)),
                         ref);
  const double e48 = mse(packed_gemm(quantize_acts_per_token(x),
                                     quantize_progressive(w, {.group = 128})),
                         ref);
  EXPECT_LT(e48, e44);
}

// --- W4A16 --------------------------------------------------------------------------

TEST(GemmW4A16, NearLosslessVsDequantizedWeights) {
  const Tensor x = random_tensor(4, 256, 19);
  const Tensor w = random_tensor(8, 256, 20);
  const auto qw = quantize_w4a16(w, 128);
  const Tensor y = gemm_w4a16(x, qw);
  const Tensor ref = gemm_f32_ref(x, dequantize(qw));
  for (int64_t i = 0; i < y.numel(); ++i)
    EXPECT_NEAR(y[i], ref[i], 0.02f * std::abs(ref[i]) + 0.1f);
}

}  // namespace
}  // namespace qserve
