#include "kernels/ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "quant/quantize.h"

namespace qserve {
namespace {

Tensor random_tensor(int64_t m, int64_t d, uint64_t seed) {
  Rng rng(seed);
  Tensor t({m, d});
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.normal();
  return t;
}

TEST(RmsNorm, UnitRmsOutput) {
  const Tensor x = random_tensor(4, 64, 1);
  const Tensor gamma = Tensor::full({64}, 1.0f);
  const Tensor y = rms_norm(x, gamma);
  for (int64_t t = 0; t < y.rows(); ++t) {
    double ss = 0;
    for (int64_t c = 0; c < y.cols(); ++c) ss += double(y.at2(t, c)) * y.at2(t, c);
    EXPECT_NEAR(std::sqrt(ss / 64.0), 1.0, 1e-3);
  }
}

TEST(RmsNorm, GammaScalesChannels) {
  Tensor x({1, 4});
  x[0] = x[1] = x[2] = x[3] = 1.0f;
  Tensor gamma({4});
  gamma[0] = 2.0f;
  gamma[1] = gamma[2] = gamma[3] = 1.0f;
  const Tensor y = rms_norm(x, gamma);
  EXPECT_NEAR(y[0] / y[1], 2.0f, 1e-5);
}

TEST(RmsNorm, ScaleInvariance) {
  // RMSNorm output is invariant to scaling the input row — the property that
  // lets rotation commute after gamma folding.
  const Tensor x = random_tensor(2, 32, 2);
  Tensor x2 = x;
  for (int64_t i = 0; i < x2.numel(); ++i) x2[i] *= 5.0f;
  const Tensor gamma = Tensor::full({32}, 1.0f);
  EXPECT_LT(max_abs_diff(rms_norm(x, gamma, 0.0f), rms_norm(x2, gamma, 0.0f)),
            1e-5f);
}

TEST(RmsNormQuant, FusedEqualsSeparate) {
  const Tensor x = random_tensor(3, 64, 3);
  const Tensor gamma = Tensor::full({64}, 1.0f);
  const auto fused = rms_norm_quant(x, gamma);
  const auto separate = quantize_acts_per_token(rms_norm(x, gamma));
  for (int64_t i = 0; i < fused.q.numel(); ++i)
    EXPECT_EQ(fused.q[i], separate.q[i]);
}

TEST(Swiglu, GateTimesUp) {
  // Columns 0-1 scale silu(+-1) by up = 3 and 2; columns 2-4 read silu
  // itself (up = 1) at 0 and +-10.
  Tensor gate({1, 5}), up({1, 5});
  const float g[] = {1.0f, -1.0f, 0.0f, 10.0f, -10.0f};
  const float u[] = {3.0f, 2.0f, 1.0f, 1.0f, 1.0f};
  for (int64_t c = 0; c < 5; ++c) {
    gate[c] = g[c];
    up[c] = u[c];
  }
  const Tensor y = swiglu(gate, up);
  const float silu1 = 1.0f / (1.0f + std::exp(-1.0f));
  const float silum1 = -1.0f / (1.0f + std::exp(1.0f));
  EXPECT_NEAR(y[0], silu1 * 3.0f, 1e-5);
  EXPECT_NEAR(y[1], silum1 * 2.0f, 1e-5);
  EXPECT_NEAR(y[2], 0.0f, 1e-6);
  EXPECT_NEAR(y[3], 10.0f, 1e-3);
  EXPECT_NEAR(y[4], 0.0f, 1e-3);
}

TEST(Rope, PreservesNorm) {
  Tensor x = random_tensor(3, 128, 4);
  Tensor orig = x;
  rope_inplace(x, {5, 9, 13}, 64);
  for (int64_t t = 0; t < 3; ++t) {
    double n0 = 0, n1 = 0;
    for (int64_t c = 0; c < 128; ++c) {
      n0 += double(orig.at2(t, c)) * orig.at2(t, c);
      n1 += double(x.at2(t, c)) * x.at2(t, c);
    }
    EXPECT_NEAR(n0, n1, 1e-3 * n0);
  }
}

TEST(Rope, PositionZeroIsIdentity) {
  Tensor x = random_tensor(1, 64, 5);
  const Tensor orig = x;
  rope_inplace(x, {0}, 64);
  EXPECT_LT(max_abs_diff(x, orig), 1e-6f);
}

TEST(Rope, RelativePositionProperty) {
  // <RoPE(q, m), RoPE(k, n)> depends only on m - n.
  Tensor q = random_tensor(1, 64, 6);
  Tensor k = random_tensor(1, 64, 7);
  auto dot_at = [&](int pq, int pk) {
    Tensor qq = q, kk = k;
    rope_inplace(qq, {pq}, 64);
    rope_inplace(kk, {pk}, 64);
    double d = 0;
    for (int64_t c = 0; c < 64; ++c) d += double(qq[c]) * kk[c];
    return d;
  };
  EXPECT_NEAR(dot_at(3, 1), dot_at(10, 8), 1e-3);
  EXPECT_NEAR(dot_at(7, 0), dot_at(12, 5), 1e-3);
}

TEST(Rope, PairsChannelIWithIPlusHalf) {
  // Channel i and i + D/2 rotate together: zeroing both leaves the rest
  // untouched regardless of position.
  Tensor x({1, 8});
  for (int64_t c = 0; c < 8; ++c) x[c] = 1.0f;
  x[1] = 0.0f;
  x[5] = 0.0f;  // pair (1, 1+4)
  Tensor rot = x;
  rope_inplace(rot, {3}, 8);
  // Pair (1,5) stays zero; other channels moved.
  EXPECT_EQ(rot[1], 0.0f);
  EXPECT_EQ(rot[5], 0.0f);
}

TEST(Rope, EachHeadAndTokenMatchesItsOwnCall) {
  // The angles are shared across heads and cached per token: a stacked
  // call over 10 heads and 5 positions must give every (token, head) slice
  // the bits a call on that slice alone gives.
  constexpr int kHeadDim = 64, kHeads = 10;
  const std::vector<int> positions = {0, 3, 7, 100, 4095};
  const int64_t m = static_cast<int64_t>(positions.size());
  const Tensor x = random_tensor(m, kHeads * kHeadDim, 8);
  Tensor stacked = x;
  rope_inplace(stacked, positions, kHeadDim);
  for (int64_t t = 0; t < m; ++t)
    for (int h = 0; h < kHeads; ++h) {
      Tensor one({1, kHeadDim});
      std::copy(x.row(t) + h * kHeadDim, x.row(t) + (h + 1) * kHeadDim,
                one.data());
      rope_inplace(one, {positions[static_cast<size_t>(t)]}, kHeadDim);
      EXPECT_EQ(0, std::memcmp(one.data(), stacked.row(t) + h * kHeadDim,
                               kHeadDim * sizeof(float)))
          << "token " << t << " head " << h;
    }
}

TEST(AddInplace, Adds) {
  Tensor a = Tensor::full({2, 2}, 1.0f);
  const Tensor b = Tensor::full({2, 2}, 2.0f);
  add_inplace(a, b);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(a[i], 3.0f);
}

}  // namespace
}  // namespace qserve
