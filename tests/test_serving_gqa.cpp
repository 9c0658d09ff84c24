// Grouped-query attention end to end: a g=4 model (8 query heads sharing 2
// KV heads, the Llama-3-70B ratio) must stream bitwise identically across
// ISAs, thread counts, and tensor-parallel shard counts; its KV cache must
// cost 4x fewer bytes per token than the MHA layout at the same query width;
// and head-layout validation must reject indivisible configurations loudly.
#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "harness.h"

namespace qserve {
namespace {

const ModelWeights& weights() { return toy_weights(toy_config_gqa4(1)); }

// The g=4 model at the given shard count under `cfg` and base options.
EngineOutcome run(const Workload& w, int shards, const EngineConfig& cfg,
                  const RequestOptions& opts = {},
                  const QuantSchemeConfig& scheme =
                      QuantSchemeConfig::qserve_w4a8kv4_g128()) {
  EngineRun spec;
  spec.target = &weights();
  spec.scheme = scheme;
  spec.tp = TpConfig{shards};
  spec.cfg = cfg;
  spec.opts = opts;
  return run_engine(spec, w);
}

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

TEST(GqaEngine, StreamsBitwiseAcrossIsaThreadsAndShards) {
  Rng rng(4100);
  const Workload w = random_workload(rng, 5, {1, 24}, {4, 12});
  EngineConfig cfg;
  cfg.scheduler.max_batch = 3;
  cfg.scheduler.prefill_chunk = 8;
  EngineOutcome base;
  {
    ConfigGuard pin(cpu::Isa::kScalar, /*threads=*/1);
    base = run(w, 1, cfg);
  }
  for_each_config(supported_isas(), {1, 8}, {1, 2}, [&](const ConfigCell& c) {
    EXPECT_EQ(base.streams, run(w, c.shards, cfg).streams);
  });
}

TEST(GqaEngine, PreemptionChurnStreamsMatch) {
  ConfigGuard guard;
  const Workload w = churn_workload();
  EngineConfig cfg;
  cfg.scheduler.max_batch = 4;
  const EngineOutcome roomy = run(w, 1, cfg, {}, pool_scheme(1 << 20));
  const EngineOutcome tight = run(w, 1, cfg, {}, pool_scheme(3));
  EXPECT_GE(tight.stats.preemptions, 1);
  EXPECT_EQ(roomy.streams, tight.streams);
  const EngineOutcome tight_tp = run(w, 2, cfg, {}, pool_scheme(3));
  EXPECT_EQ(roomy.streams, tight_tp.streams);
  EXPECT_EQ(tight.stats.preemptions, tight_tp.stats.preemptions);
}

TEST(GqaEngine, SlidingWindowComposesWithGroupedHeads) {
  // GQA + windowed KV: the ring walks KV heads, query groups walk the ring's
  // runs; streams must be shard-invariant and recycling must engage.
  ConfigGuard guard;
  Rng rng(4101);
  Workload w = random_workload(rng, 3, {1, 24}, {4, 12});
  // Cross sink + window + slack + boundary page (= 80 tokens at the
  // engine's 16-token slack) so the ring genuinely recycles.
  for (auto& m : w.max_new) m += 90;
  EngineConfig cfg;
  cfg.scheduler.max_batch = 3;
  cfg.scheduler.prefill_chunk = 16;
  RequestOptions opts;
  opts.attention_window = 32;
  opts.sink_tokens = 16;
  const EngineOutcome base = run(w, 1, cfg, opts);
  EXPECT_EQ(base.stats.windowed_requests, 3);
  EXPECT_GT(base.stats.kv_recycled_pages, 0);
  const EngineOutcome tp = run(w, 2, cfg, opts);
  EXPECT_EQ(base.streams, tp.streams);
  // The same workload without a window streams identically while every
  // context stays under sink + window... which it does not here, so the
  // windowed run is genuinely exercising the grouped windowed kernels:
  // recycled pages prove pages were reused in place.
  EXPECT_EQ(base.stats.kv_recycled_pages, tp.stats.kv_recycled_pages);
}

}  // namespace
}  // namespace qserve
