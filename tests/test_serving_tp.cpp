// Tensor-parallel execution: shard-count invariance of the whole stack.
// Model-level forward_step logits and KV state, engine token streams (plain,
// preemption churn, speculative, prefix caching + parallel sampling), and
// programmatic fault schedules must all be bitwise identical at 1/2/4 shards
// across ISAs and thread counts; shard-count resolution clamps the runtime
// default and loudly rejects infeasible explicit configs; the TP stats
// (comm_seconds, shard_imbalance) behave as documented.
#include <gtest/gtest.h>

#include <algorithm>

#include "harness.h"

namespace qserve {
namespace {

// 4 KV heads: shards up to 4 ways; the draft is a divergent seed.
const ModelWeights& weights() { return toy_weights(toy_config_mha(1)); }
const ModelWeights& draft_weights() {
  return toy_weights(toy_config_mha(1), 777);
}

EngineOutcome run(const Workload& w, int shards, const EngineConfig& cfg,
                  const QuantSchemeConfig& scheme, bool speculative) {
  EngineRun spec;
  spec.target = &weights();
  spec.scheme = scheme;
  spec.draft = speculative ? &draft_weights() : nullptr;
  spec.draft_scheme = scheme;
  spec.tp = TpConfig{shards};
  spec.cfg = cfg;
  return run_engine(spec, w);
}

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
    for_each_config(supported_isas(), {1, 8}, {0}, [&](const ConfigCell&) {
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

// --- shard-count resolution ---------------------------------------------------

TEST(TensorParallelConfig, RuntimeDefaultClampsToFeasible) {
  ConfigGuard guard;
  set_tp_shards(8);
  // INT8-path MHA toy: 4 KV heads cap the 8 requested shards at 4.
  QuantizedModel clamped(weights(), QuantSchemeConfig::qserve_w4a8kv4_g128());
  EXPECT_EQ(clamped.tp_shards(), 4);
  // Non-INT8-path scheme: always single-shard under the runtime default.
  QuantizedModel w4a16(weights(), QuantSchemeConfig::trt_w4a16());
  EXPECT_EQ(w4a16.tp_shards(), 1);
  set_tp_shards(0);
  // Back on the environment default (QSERVE_TP_SHARDS or 1), still clamped
  // to the 4 KV heads so the CI shard sweep can run this suite unchanged.
  QuantizedModel plain(weights(), QuantSchemeConfig::qserve_w4a8kv4_g128());
  EXPECT_EQ(plain.tp_shards(), std::min(tp_shards(), 4));
}

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
  EXPECT_THROW(QuantizedModel(weights(),
                              QuantSchemeConfig::qserve_w4a8kv4_g128(),
                              TpConfig{-1}),
               CheckError);
  // An explicit single shard is always fine, any scheme.
  QuantizedModel one(weights(), QuantSchemeConfig::trt_w4a16(), TpConfig{1});
  EXPECT_EQ(one.tp_shards(), 1);
}

// --- engine-level stream identity --------------------------------------------

TEST(TensorParallelEngine, StreamsMatchSingleShardAcrossShardCounts) {
  ConfigGuard guard;
  Rng rng(4242);
  const Workload w = random_workload(rng, 6, {1, 24}, {1, 10});
  EngineConfig cfg;
  cfg.scheduler.max_batch = 4;
  cfg.scheduler.prefill_chunk = 8;
  const QuantSchemeConfig scheme = QuantSchemeConfig::qserve_w4a8kv4_g128();
  for (const int threads : {1, 8}) {
    set_num_threads(threads);
    const EngineOutcome base = run(w, 1, cfg, scheme, false);
    for (const int shards : {2, 4}) {
      const EngineOutcome tp = run(w, shards, cfg, scheme, false);
      EXPECT_EQ(base.streams, tp.streams)
          << "shards=" << shards << " threads=" << threads;
      // TP runs report the reduction-boundary time and a sane imbalance
      // factor; the single-shard run reports neither.
      EXPECT_GT(tp.stats.comm_seconds, 0.0);
      EXPECT_GE(tp.stats.shard_imbalance, 1.0);
    }
    EXPECT_EQ(base.stats.comm_seconds, 0.0);
    EXPECT_EQ(base.stats.shard_imbalance, 0.0);
  }
}

TEST(TensorParallelEngine, PreemptionChurnStreamsMatch) {
  // A 3-page pool forces eviction + re-prefill; scheduling decisions depend
  // only on token streams and page math, so every shard count must take the
  // same path and emit the same streams.
  ConfigGuard guard;
  const Workload w = churn_workload();
  const QuantSchemeConfig scheme = pool_scheme(3);
  EngineConfig cfg;
  cfg.scheduler.max_batch = 4;
  const EngineOutcome base = run(w, 1, cfg, scheme, false);
  EXPECT_GE(base.stats.preemptions, 1);
  for (const int shards : {2, 4}) {
    const EngineOutcome tp = run(w, shards, cfg, scheme, false);
    EXPECT_EQ(base.streams, tp.streams) << "shards=" << shards;
    EXPECT_EQ(base.stats.preemptions, tp.stats.preemptions);
  }
}

TEST(TensorParallelEngine, SpeculativeStreamsMatch) {
  // Draft and target both shard; greedy acceptance must decide identically,
  // so streams and acceptance counters match the single-shard speculative
  // engine bitwise.
  ConfigGuard guard;
  Rng rng(99);
  const Workload w = random_workload(rng, 4, {1, 24}, {1, 10});
  EngineConfig cfg;
  cfg.scheduler.max_batch = 3;
  cfg.scheduler.prefill_chunk = 8;
  cfg.speculative.lookahead_k = 3;
  const QuantSchemeConfig scheme = QuantSchemeConfig::qserve_w4a8kv4_g128();
  const EngineOutcome base = run(w, 1, cfg, scheme, true);
  for (const int shards : {2, 4}) {
    const EngineOutcome tp = run(w, shards, cfg, scheme, true);
    EXPECT_EQ(base.streams, tp.streams) << "shards=" << shards;
    EXPECT_EQ(base.stats.accepted_tokens, tp.stats.accepted_tokens);
    EXPECT_EQ(base.stats.verify_forwards, tp.stats.verify_forwards);
    EXPECT_GT(tp.stats.comm_seconds, 0.0);
  }
}

TEST(TensorParallelEngine, PrefixCachingAndParallelSamplingMatch) {
  // Shared-prefix workload + parallel sampling exercises fork/CoW against
  // the head-ranged KV writes; hits and streams must be shard-invariant.
  ConfigGuard guard;
  // 20 shared tokens = one full 16-token KV page after alignment, so later
  // prompts actually hit the cache.
  const std::vector<int> common(20, 7);
  auto run = [&](int shards) {
    QuantizedModel model(weights(),
                         QuantSchemeConfig::qserve_w4a8kv4_g128(),
                         TpConfig{shards});
    EngineConfig cfg;
    cfg.scheduler.max_batch = 4;
    cfg.scheduler.prefill_chunk = 8;
    cfg.prefix_caching = true;
    ServingEngine engine(&model, cfg);
    std::vector<int> ids;
    for (int i = 0; i < 3; ++i) {
      std::vector<int> prompt = common;
      prompt.push_back(100 + i);
      RequestOptions opts;
      opts.max_new_tokens = 6;
      opts.n = (i == 0) ? 2 : 1;
      ids.push_back(engine.submit(prompt, opts, nullptr, nullptr));
    }
    EngineOutcome out;
    out.stats = engine.run_to_completion();
    for (int id : ids) out.streams.push_back(engine.request(id).generated);
    engine.clear_prefix_cache();
    EXPECT_EQ(model.kv_cache().pages_in_use(), 0);
    return out;
  };
  const EngineOutcome base = run(1);
  EXPECT_GE(base.stats.prefix_hits, 1);
  for (const int shards : {2, 4}) {
    const EngineOutcome tp = run(shards);
    EXPECT_EQ(base.streams, tp.streams) << "shards=" << shards;
    EXPECT_EQ(base.stats.prefix_hits, tp.stats.prefix_hits);
    EXPECT_EQ(base.stats.prefill_tokens_saved, tp.stats.prefill_tokens_saved);
  }
}

// --- fault-schedule invariance ------------------------------------------------

TEST(TensorParallelEngine, FaultSchedulesAreShardCountInvariant) {
  // The TP executor reserves KV spans centrally with ONE kv_append draw per
  // span — append_batch's schedule — and kv_alloc draws happen inside the
  // same reservation path. At one thread the draw order is deterministic, so
  // an armed site fires at the same step whatever the shard count and the
  // engines recover into identical streams.
  ConfigGuard guard;
  set_num_threads(1);
  Rng rng(7);
  const Workload w = random_workload(rng, 4, {1, 24}, {1, 10});
  EngineConfig cfg;
  cfg.scheduler.max_batch = 3;
  cfg.scheduler.prefill_chunk = 8;
  const QuantSchemeConfig scheme = QuantSchemeConfig::qserve_w4a8kv4_g128();
  auto run_faulted = [&](int shards) {
    fault::set_site(fault::kKvAlloc, 0.05, 11);
    const EngineOutcome out = run(w, shards, cfg, scheme, false);
    fault::clear();
    return out;
  };
  const EngineOutcome base = run_faulted(1);
  for (const int shards : {2, 4}) {
    const EngineOutcome tp = run_faulted(shards);
    EXPECT_EQ(base.streams, tp.streams) << "shards=" << shards;
    EXPECT_EQ(base.stats.faulted_steps + base.stats.preemptions,
              tp.stats.faulted_steps + tp.stats.preemptions)
        << "shards=" << shards;
  }
}

}  // namespace
}  // namespace qserve
