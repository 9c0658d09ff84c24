// Fused decode attention over quantized pages: must be bit-identical to the
// gather-then-attend reference at every KV precision and GQA configuration.
#include "kvcache/fused_attention.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace qserve {
namespace {

struct FusedFixture {
  KvCacheConfig cache_cfg;
  AttentionConfig attn_cfg;
  PagedKvCache cache;
  int seq;
  std::vector<float> q;

  FusedFixture(KvPrecision p, int n_heads, int n_kv_heads, int tokens,
        bool fp16_accum, uint64_t seed)
      : cache_cfg{n_kv_heads, 32, 8, p, 1024},
        attn_cfg{n_heads, n_kv_heads, 32, fp16_accum},
        cache(cache_cfg),
        seq(cache.alloc_sequence()) {
    Rng rng(seed);
    const int span = n_kv_heads * 32;
    std::vector<float> k(static_cast<size_t>(span)),
        v(static_cast<size_t>(span));
    for (int t = 0; t < tokens; ++t) {
      for (auto& x : k) x = rng.normal();
      for (auto& x : v) x = rng.normal();
      k[0] = 9.0f;  // persistent outlier channel, like real Keys
      cache.append_batch(seq, k.data(), v.data(), 1);
    }
    q.resize(static_cast<size_t>(n_heads) * 32);
    for (auto& x : q) x = rng.normal();
  }

  std::vector<float> fused() const {
    std::vector<float> out(q.size());
    batched_fused_decode_attention(cache, {{seq, q.data(), out.data()}},
                                   attn_cfg);
    return out;
  }

  std::vector<float> reference() const {
    Tensor k, v;
    cache.gather(seq, k, v);
    Tensor qt({1, static_cast<int64_t>(q.size())});
    std::copy(q.begin(), q.end(), qt.data());
    const Tensor out = attention_prefill(qt, k, v, attn_cfg);
    return std::vector<float>(out.data(), out.data() + out.numel());
  }
};

class FusedAttentionParity
    : public ::testing::TestWithParam<std::tuple<KvPrecision, int, int>> {};

TEST_P(FusedAttentionParity, BitIdenticalToGatherPath) {
  const auto [precision, n_heads, n_kv_heads] = GetParam();
  for (const bool fp16 : {false, true}) {
    FusedFixture s(precision, n_heads, n_kv_heads, 37, fp16, 11);
    const auto a = s.fused();
    const auto b = s.reference();
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FusedAttentionParity,
    ::testing::Values(std::make_tuple(KvPrecision::kFp16, 4, 4),
                      std::make_tuple(KvPrecision::kInt8, 4, 4),
                      std::make_tuple(KvPrecision::kInt4, 4, 4),
                      std::make_tuple(KvPrecision::kInt4, 8, 2),
                      std::make_tuple(KvPrecision::kInt8, 6, 3)));

TEST(FusedAttention, SpansMultiplePages) {
  // 37 tokens at page size 8 -> 5 pages; fused walk must cross boundaries.
  FusedFixture s(KvPrecision::kInt4, 4, 2, 37, false, 3);
  EXPECT_EQ(s.cache.pages_in_use(), 5);
  const auto a = s.fused();
  const auto b = s.reference();
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(FusedAttention, RejectsEmptySequence) {
  KvCacheConfig cfg{2, 32, 8, KvPrecision::kInt4, 16};
  PagedKvCache cache(cfg);
  const int seq = cache.alloc_sequence();
  AttentionConfig acfg{2, 2, 32, false};
  std::vector<float> q(64), out(64);
  EXPECT_THROW(batched_fused_decode_attention(
                   cache, {{seq, q.data(), out.data()}}, acfg),
               CheckError);
}

TEST(FusedAttention, RejectsMismatchedHeadDim) {
  FusedFixture s(KvPrecision::kInt4, 4, 2, 5, false, 7);
  AttentionConfig bad = s.attn_cfg;
  bad.head_dim = 64;
  std::vector<float> out(256);
  EXPECT_THROW(
      batched_fused_decode_attention(
          s.cache, {{s.seq, s.q.data(), out.data()}}, bad),
      CheckError);
}

TEST(FusedAttention, ReadRejectsOutOfRangeToken) {
  // 5 tokens at page size 8: one run. The read path bounds-checks the run
  // index and the KV head of every k_run/v_run.
  FusedFixture s(KvPrecision::kInt4, 4, 2, 5, false, 9);
  const PagedKvCache::SeqView view = s.cache.view(s.seq);
  ASSERT_EQ(view.num_page_runs(), 1);
  EXPECT_EQ(view.k_run(0, 1).n_tokens, 5);
  EXPECT_THROW(view.k_run(1, 0), CheckError);
  EXPECT_THROW(view.k_run(-1, 0), CheckError);
  EXPECT_THROW(view.k_run(0, 2), CheckError);
  EXPECT_THROW(view.v_run(0, -1), CheckError);
  EXPECT_THROW(view.run_token0(1), CheckError);
}

}  // namespace
}  // namespace qserve
