// Tensor-parallel execution: model-level forward_step logits and KV state
// must be bitwise identical at 1/2/4 shards across ISAs and thread counts;
// TpConfig is the only source of a shard count and infeasible configs throw
// at construction. The engine fuzzer (test_engine_fuzz.cpp) checks engine
// streams, fault schedules and the TP stats (comm_seconds, shard_imbalance)
// at every shard count.
#include <gtest/gtest.h>

#include "harness.h"

namespace qserve {
namespace {

// 4 KV heads: shards up to 4 ways.
const ModelWeights& weights() { return toy_weights(toy_config_mha(1)); }

// --- model-level bitwise identity -------------------------------------------

TEST(TensorParallelModel, ForwardStepBitwiseAcrossShardsIsasThreadsSchemes) {
  // A mixed step (two decode rows + two prefill chunks) must produce the
  // same logits AND the same continued KV state at 2 and 4 shards as the
  // single-shard engine, for every INT8-path scheme, on every ISA the host
  // can run, at 1 and 8 threads.
  const QuantSchemeConfig schemes[] = {
      QuantSchemeConfig::qserve_w4a8kv4_g128(),
      QuantSchemeConfig::qserve_w4a8kv4_per_channel(),
      QuantSchemeConfig::trt_w8a8(),
  };
  for (const QuantSchemeConfig& scheme : schemes) {
    auto run_one = [&](int shards) {
      QuantizedModel m(weights(), scheme, TpConfig{shards});
      EXPECT_EQ(m.tp_shards(), shards);
      const int sa = m.begin_sequence(), sb = m.begin_sequence(),
                sc = m.begin_sequence(), sd = m.begin_sequence();
      m.prefill(sa, {3, 1, 4, 1, 5});
      m.prefill(sb, {9, 2, 6});
      BatchedStep step;
      step.chunks.push_back({sa, {42}, 5});
      step.chunks.push_back({sb, {17}, 3});
      step.chunks.push_back({sc, {2, 7, 1, 8, 2, 8}, 0});
      step.chunks.push_back({sd, {11, 13}, 0});
      Tensor logits = m.forward_step(step);
      // Continuation probes the KV bytes every shard wrote.
      BatchedStep next;
      next.chunks.push_back({sa, {100}, 6});
      next.chunks.push_back({sc, {5}, 6});
      Tensor cont = m.forward_step(next);
      std::vector<float> out(logits.data(), logits.data() + logits.numel());
      out.insert(out.end(), cont.data(), cont.data() + cont.numel());
      return out;
    };
    for_each_config(supported_isas(), {1, 8}, [&] {
      const std::vector<float> base = run_one(1);
      for (const int shards : {2, 4}) {
        const std::vector<float> tp = run_one(shards);
        ASSERT_EQ(base.size(), tp.size());
        for (size_t i = 0; i < base.size(); ++i)
          ASSERT_EQ(base[i], tp[i]) << "shards=" << shards << " i=" << i;
      }
    });
  }
}

// --- shard-count validation ---------------------------------------------------

TEST(TensorParallelConfig, ExplicitInfeasibleConfigsThrow) {
  // More shards than KV heads.
  EXPECT_THROW(QuantizedModel(weights(),
                              QuantSchemeConfig::qserve_w4a8kv4_g128(),
                              TpConfig{8}),
               CheckError);
  // Sharding a scheme without exact INT32 accumulators.
  EXPECT_THROW(
      QuantizedModel(weights(), QuantSchemeConfig::trt_w4a16(), TpConfig{2}),
      CheckError);
  EXPECT_THROW(
      QuantizedModel(weights(), QuantSchemeConfig::fp16(), TpConfig{2}),
      CheckError);
  // Fewer than one shard: no value means "pick one for me".
  for (const int n : {0, -1}) {
    EXPECT_THROW(QuantizedModel(weights(),
                                QuantSchemeConfig::qserve_w4a8kv4_g128(),
                                TpConfig{n}),
                 CheckError)
        << n;
  }
  // A single shard is always fine, any scheme, and is the default.
  QuantizedModel one(weights(), QuantSchemeConfig::trt_w4a16(), TpConfig{1});
  EXPECT_EQ(one.tp_shards(), 1);
  QuantizedModel plain(weights(), QuantSchemeConfig::qserve_w4a8kv4_g128());
  EXPECT_EQ(plain.tp_shards(), 1);
}

}  // namespace
}  // namespace qserve
