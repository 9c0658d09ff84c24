// Grouped-query attention: a g=4 model (8 query heads sharing 2 KV heads,
// the Llama-3-70B ratio) must cost 4x fewer KV bytes per token than the MHA
// layout at the same query width, and head-layout validation must reject
// indivisible configurations loudly. The engine fuzzer
// (test_engine_fuzz.cpp) streams the g=4 model across ISAs, thread counts,
// shard counts, preemption and sliding windows.
#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "harness.h"

namespace qserve {
namespace {

const ModelWeights& weights() { return toy_weights(toy_config_gqa4(1)); }

TEST(GqaConfig, Group4LayoutAndKvBytesReduction) {
  const ModelConfig gqa = toy_config_gqa4(1);
  ASSERT_EQ(gqa.n_heads / gqa.n_kv_heads, 4);
  ASSERT_EQ(gqa.n_heads % gqa.n_kv_heads, 0);
  // Same query width (8 heads x 32 = 256), 4x fewer KV heads: the per-token
  // KV bytes — and every cache page — shrink exactly 4x vs MHA.
  KvCacheConfig mha_kv, gqa_kv;
  mha_kv.n_kv_heads = gqa.n_heads;
  mha_kv.head_dim = gqa.head_dim;
  gqa_kv.n_kv_heads = gqa.n_kv_heads;
  gqa_kv.head_dim = gqa.head_dim;
  EXPECT_EQ(kv_page_bytes(mha_kv), 4 * kv_page_bytes(gqa_kv));
  const ModelConfig mha_like = [&] {
    ModelConfig m = gqa;
    m.n_kv_heads = m.n_heads;
    return m;
  }();
  EXPECT_EQ(mha_like.kv_bytes_per_token(4), 4 * gqa.kv_bytes_per_token(4));
}

TEST(GqaConfig, IndivisibleHeadLayoutThrowsLoudly) {
  ModelConfig bad = toy_config_gqa4(1);
  bad.n_kv_heads = 3;  // 8 % 3 != 0: no whole query group per KV head
  EXPECT_THROW(QuantizedModel(make_synthetic_weights(bad),
                              QuantSchemeConfig::qserve_w4a8kv4_g128()),
               CheckError);
  // More shards than KV heads cannot give each shard a whole query group.
  EXPECT_THROW(QuantizedModel(weights(),
                              QuantSchemeConfig::qserve_w4a8kv4_g128(),
                              TpConfig{4}),
               CheckError);
}

}  // namespace
}  // namespace qserve
