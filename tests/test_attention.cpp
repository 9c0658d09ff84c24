#include "kernels/attention.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace qserve {
namespace {

Tensor random_tensor(int64_t m, int64_t d, uint64_t seed) {
  Rng rng(seed);
  Tensor t({m, d});
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.normal();
  return t;
}

TEST(Attention, SingleTokenIsIdentityOverValues) {
  // One query, one key: softmax over a single score = 1 -> output = value.
  AttentionConfig cfg{1, 1, 8, false};
  const Tensor q = random_tensor(1, 8, 1);
  const Tensor k = random_tensor(1, 8, 2);
  const Tensor v = random_tensor(1, 8, 3);
  const Tensor o = attention_prefill(q, k, v, cfg);
  EXPECT_LT(max_abs_diff(o, v), 1e-6f);
}

TEST(Attention, AttendsToMatchingKey) {
  // Query aligned with key 1 and orthogonal to key 0 -> output ~ value 1.
  AttentionConfig cfg{1, 1, 4, false};
  Tensor q({1, 4}), k({2, 4}), v({2, 4});
  q.at2(0, 0) = 20.0f;               // large magnitude -> sharp softmax
  k.at2(0, 1) = 20.0f;               // orthogonal
  k.at2(1, 0) = 20.0f;               // aligned
  for (int64_t c = 0; c < 4; ++c) {
    v.at2(0, c) = -1.0f;
    v.at2(1, c) = 1.0f;
  }
  // Single new token attending over both cached keys.
  const Tensor o = attention_prefill(q, k, v, cfg);
  for (int64_t c = 0; c < 4; ++c) EXPECT_NEAR(o.at2(0, c), 1.0f, 1e-3f);
}

TEST(Attention, CausalMaskBlocksFuture) {
  // With two new tokens, token 0 must ignore token 1's key/value: make
  // token 1's value huge; token 0's output must not contain it.
  AttentionConfig cfg{1, 1, 4, false};
  const Tensor q = random_tensor(2, 4, 4);
  const Tensor k = random_tensor(2, 4, 5);
  Tensor v({2, 4});
  for (int64_t c = 0; c < 4; ++c) {
    v.at2(0, c) = 1.0f;
    v.at2(1, c) = 1000.0f;
  }
  const Tensor o = attention_prefill(q, k, v, cfg);
  for (int64_t c = 0; c < 4; ++c) EXPECT_NEAR(o.at2(0, c), 1.0f, 1e-4f);
}

TEST(Attention, GqaSharesKvHeads) {
  // 4 query heads, 2 kv heads: heads 0,1 read kv head 0; heads 2,3 read kv
  // head 1. Give the two kv heads different constant values.
  AttentionConfig cfg{4, 2, 4, false};
  const Tensor q = random_tensor(1, 16, 6);
  const Tensor k = random_tensor(3, 8, 7);
  Tensor v({3, 8});
  for (int64_t t = 0; t < 3; ++t)
    for (int64_t c = 0; c < 8; ++c)
      v.at2(t, c) = c < 4 ? 2.0f : -3.0f;  // head 0 => 2, head 1 => -3
  const Tensor o = attention_prefill(q, k, v, cfg);
  for (int h = 0; h < 4; ++h) {
    const float expect = h < 2 ? 2.0f : -3.0f;
    for (int d = 0; d < 4; ++d)
      EXPECT_NEAR(o.at2(0, h * 4 + d), expect, 1e-4f);
  }
}

TEST(Attention, DecodeMatchesLastPrefillRow) {
  AttentionConfig cfg{2, 2, 8, false};
  const Tensor q = random_tensor(4, 16, 8);
  const Tensor k = random_tensor(4, 16, 9);
  const Tensor v = random_tensor(4, 16, 10);
  const Tensor o = attention_prefill(q, k, v, cfg);
  // The last row alone, as a one-row decode span: the same bits.
  Tensor q3({1, 16});
  for (int64_t c = 0; c < 16; ++c) q3.at2(0, c) = q.at2(3, c);
  const Tensor d = attention_prefill(q3, k, v, cfg);
  for (int64_t c = 0; c < 16; ++c) EXPECT_EQ(d.at2(0, c), o.at2(3, c));
}

TEST(Attention, Fp16AccumulationIsCloseButNotIdentical) {
  AttentionConfig fp32{4, 4, 32, false};
  AttentionConfig fp16{4, 4, 32, true};
  const Tensor q = random_tensor(1, 128, 11);
  const Tensor k = random_tensor(64, 128, 12);
  const Tensor v = random_tensor(64, 128, 13);
  const Tensor o32 = attention_prefill(q, k, v, fp32);
  const Tensor o16 = attention_prefill(q, k, v, fp16);
  float diff = 0, any = 0;
  for (int64_t i = 0; i < 128; ++i) {
    diff = std::max(diff, std::abs(o32[i] - o16[i]));
    any += std::abs(o32[i]);
  }
  EXPECT_GT(diff, 0.0f);       // FP16 rounding is visible...
  EXPECT_LT(diff, 0.05f);      // ...but small (§5.3 relies on this)
  EXPECT_GT(any, 0.0f);
}

TEST(Attention, SoftmaxWeightsSumToOneImplied) {
  // Constant values => output equals that constant regardless of scores.
  AttentionConfig cfg{2, 2, 4, false};
  const Tensor q = random_tensor(1, 8, 14);
  const Tensor k = random_tensor(16, 8, 15);
  const Tensor v = Tensor::full({16, 8}, 3.25f);
  const Tensor o = attention_prefill(q, k, v, cfg);
  for (int64_t i = 0; i < o.numel(); ++i) EXPECT_NEAR(o[i], 3.25f, 1e-4f);
}

}  // namespace
}  // namespace qserve
