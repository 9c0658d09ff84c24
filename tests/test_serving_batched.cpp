// Batched step executor: one forward_step over decode rows and prefill
// chunks reproduces per-sequence calls bitwise; streaming-callback ordering;
// loud construction-time config validation; batched-GEMM occupancy and k = 0
// verify-span stats. The engine fuzzer (test_engine_fuzz.cpp) holds the
// engine's greedy and sampled streams to the model-level reference across
// ISAs, thread counts, shard counts and preemption churn.
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "harness.h"
#include "serving/engine.h"

namespace qserve {
namespace {

const ModelWeights& weights() { return toy_weights(toy_config(1)); }

// --- model-level identity ----------------------------------------------------

TEST(QuantizedModel, ForwardStepMatchesSequentialCallsBitwise) {
  // One batched step mixing two decode rows and two prefill chunks must
  // reproduce the logits AND the KV state of per-sequence prefill /
  // decode_step calls exactly, under every weight/activation/KV scheme.
  const std::pair<const char*, QuantSchemeConfig> schemes[] = {
      {"qserve_w4a8kv4_g128", QuantSchemeConfig::qserve_w4a8kv4_g128()},
      {"qserve_w4a8kv4_per_channel",
       QuantSchemeConfig::qserve_w4a8kv4_per_channel()},
      {"trt_w8a8", QuantSchemeConfig::trt_w8a8()},
      {"trt_w4a16", QuantSchemeConfig::trt_w4a16()},
      {"atom_w4a4", QuantSchemeConfig::atom_w4a4()},
      {"fp16", QuantSchemeConfig::fp16()},
  };
  for (const auto& [name, scheme] : schemes) {
    SCOPED_TRACE(name);
    QuantizedModel seq_m(weights(), scheme);
    QuantizedModel bat_m(weights(), scheme);

    const std::vector<int> ctx_a = {3, 1, 4, 1, 5}, ctx_b = {9, 2, 6};
    const std::vector<int> pre_c = {2, 7, 1, 8, 2, 8}, pre_d = {11, 13};

    // Sequences a/b are mid-decode (context prefilled); c/d start
    // prefilling.
    int sa = seq_m.begin_sequence(), sb = seq_m.begin_sequence(),
        sc = seq_m.begin_sequence(), sd = seq_m.begin_sequence();
    int ba = bat_m.begin_sequence(), bb = bat_m.begin_sequence(),
        bc = bat_m.begin_sequence(), bd = bat_m.begin_sequence();
    seq_m.prefill(sa, ctx_a);
    seq_m.prefill(sb, ctx_b);
    bat_m.prefill(ba, ctx_a);
    bat_m.prefill(bb, ctx_b);

    const Tensor la = seq_m.decode_step(sa, 42);
    const Tensor lb = seq_m.decode_step(sb, 17);
    const Tensor lc = seq_m.prefill(sc, pre_c);
    const Tensor ld = seq_m.prefill(sd, pre_d);

    BatchedStep step;
    step.chunks.push_back({ba, {42}, 5});
    step.chunks.push_back({bb, {17}, 3});
    step.chunks.push_back({bc, pre_c, 0});
    step.chunks.push_back({bd, pre_d, 0});
    const Tensor batched = bat_m.forward_step(step);

    ASSERT_EQ(batched.rows(), 4);
    const Tensor* expect[] = {&la, &lb, &lc, &ld};
    for (int i = 0; i < 4; ++i)
      for (int64_t v = 0; v < batched.cols(); ++v)
        ASSERT_EQ(batched.at2(i, v), (*expect[i])[v]) << "chunk " << i;

    // The KV state written by the batched scatter must continue
    // identically.
    const Tensor na = seq_m.decode_step(sa, 100);
    BatchedStep next;
    next.chunks.push_back({ba, {100}, 6});
    const Tensor nb = bat_m.forward_step(next);
    for (int64_t v = 0; v < na.numel(); ++v) ASSERT_EQ(nb.at2(0, v), na[v]);
  }
}

TEST(QuantizedModel, ForwardStepValidatesChunks) {
  QuantizedModel m(weights(), QuantSchemeConfig::qserve_w4a8kv4_g128());
  const int s = m.begin_sequence();
  EXPECT_THROW(m.forward_step({}), CheckError);  // no chunks
  BatchedStep dup;
  dup.chunks.push_back({s, {1}, 0});
  dup.chunks.push_back({s, {2}, 0});  // same sequence twice
  EXPECT_THROW(m.forward_step(dup), CheckError);
  BatchedStep bad_pos;
  bad_pos.chunks.push_back({s, {1}, 3});  // pos0 != seq_pos
  EXPECT_THROW(m.forward_step(bad_pos), CheckError);
  BatchedStep bad_tok;
  // Token id out of vocab range.
  bad_tok.chunks.push_back({s, {static_cast<int>(m.config().vocab)}, 0});
  EXPECT_THROW(m.forward_step(bad_tok), CheckError);
}

// --- engine-level identity across ISAs and thread counts ---------------------

// --- streaming API -----------------------------------------------------------

TEST(ServingEngineBatched, StreamingCallbacksArriveInOrderFinishOnce) {
  QuantizedModel model(weights(), QuantSchemeConfig::qserve_w4a8kv4_g128());
  EngineConfig cfg;
  cfg.scheduler.max_batch = 3;
  ServingEngine engine(&model, cfg);

  std::map<int, std::vector<int>> streamed;
  std::map<int, int> finishes;
  std::map<int, bool> finished_before_token;
  auto submit_streaming = [&](std::vector<int> prompt, int max_new) {
    RequestOptions opts;
    opts.max_new_tokens = max_new;
    return engine.submit(
        std::move(prompt), opts,
        [&](const Request& r, int token) {
          // Tokens arrive in stream order, after being appended, and never
          // after the finish callback.
          EXPECT_FALSE(finished_before_token[r.id]);
          EXPECT_EQ(r.generated.back(), token);
          streamed[r.id].push_back(token);
          EXPECT_EQ(streamed[r.id].size(), r.generated.size());
        },
        [&](const Request& r) {
          ++finishes[r.id];
          finished_before_token[r.id] = true;
          EXPECT_TRUE(r.done());
        });
  };
  const int a = submit_streaming({1, 2, 3}, 5);
  const int b = submit_streaming({5, 6}, 3);
  const int c = submit_streaming({7, 8, 9, 10}, 1);
  engine.drain();

  for (int id : {a, b, c}) {
    EXPECT_EQ(streamed[id], engine.request(id).generated);
    EXPECT_EQ(finishes[id], 1);  // finish fires exactly once
  }
  EXPECT_EQ(streamed[a].size(), 5u);
  EXPECT_EQ(streamed[b].size(), 3u);
  EXPECT_EQ(streamed[c].size(), 1u);
}

TEST(ServingEngineBatched, StreamingSurvivesPreemption) {
  // Preemption re-prefills prompt + generated; already-delivered tokens must
  // NOT be re-delivered through on_token.
  QuantSchemeConfig scheme = QuantSchemeConfig::qserve_w4a8kv4_g128();
  scheme.kv_max_pages = 3;
  QuantizedModel model(weights(), scheme);
  EngineConfig cfg;
  cfg.scheduler.max_batch = 4;
  ServingEngine engine(&model, cfg);
  std::map<int, std::vector<int>> streamed;
  RequestOptions opts;
  std::vector<int> ids;
  for (int i = 0; i < 2; ++i) {
    opts.max_new_tokens = 20 + 10 * i;
    ids.push_back(engine.submit(
        std::vector<int>(8, 2 + i), opts,
        [&](const Request& r, int token) { streamed[r.id].push_back(token); },
        nullptr));
  }
  const EngineStats stats = engine.drain();
  EXPECT_GE(stats.preemptions, 1);
  for (int id : ids) EXPECT_EQ(streamed[id], engine.request(id).generated);
}

// --- config validation -------------------------------------------------------

TEST(Validation, BadEngineAndSchedulerConfigsThrowAtConstruction) {
  QuantizedModel model(weights(), QuantSchemeConfig::qserve_w4a8kv4_g128());
  {
    EngineConfig bad;
    bad.temperature = -0.5f;
    EXPECT_THROW(ServingEngine(&model, bad), CheckError);
  }
  {
    EngineConfig bad;
    bad.scheduler.prefill_chunk = 0;
    EXPECT_THROW(ServingEngine(&model, bad), CheckError);
  }
  {
    EngineConfig bad;
    bad.scheduler.max_batch = -1;
    EXPECT_THROW(ServingEngine(&model, bad), CheckError);
  }
  EXPECT_THROW(Scheduler({.max_batch = 1, .prefill_chunk = 1}, /*page_size=*/0,
                         /*n_layers=*/1),
               CheckError);
  EXPECT_THROW(Scheduler({.max_batch = 1, .prefill_chunk = 1}, /*page_size=*/16,
                         /*n_layers=*/0),
               CheckError);
}

TEST(Validation, BadSchemeConfigsThrowAtConstruction) {
  {
    QuantSchemeConfig bad = QuantSchemeConfig::qserve_w4a8kv4_g128();
    bad.kv_max_pages = 0;
    EXPECT_THROW(QuantizedModel(weights(), bad), CheckError);
  }
  {
    QuantSchemeConfig bad = QuantSchemeConfig::qserve_w4a8kv4_g128();
    bad.group = 0;
    EXPECT_THROW(QuantizedModel(weights(), bad), CheckError);
  }
  {
    QuantSchemeConfig bad = QuantSchemeConfig::qserve_w4a8kv4_g128();
    bad.level1_range = 0;
    EXPECT_THROW(QuantizedModel(weights(), bad), CheckError);
  }
  {
    QuantSchemeConfig bad = QuantSchemeConfig::qserve_w4a8kv4_g128();
    bad.level1_range = 128;
    EXPECT_THROW(QuantizedModel(weights(), bad), CheckError);
  }
}

// --- batch occupancy stats ---------------------------------------------------

TEST(ServingEngineBatched, BatchTokenStatsCountRowsNotRequests) {
  QuantizedModel model(weights(), QuantSchemeConfig::qserve_w4a8kv4_g128());
  EngineConfig cfg;
  cfg.scheduler.max_batch = 3;
  ServingEngine engine(&model, cfg);
  for (int i = 0; i < 3; ++i) engine.submit(std::vector<int>(8, 1 + i), 4);
  const EngineStats stats = engine.drain();
  // Step 1 stacks 3 prefill chunks of 8 rows; steps 2-4 stack 3 decode rows.
  EXPECT_EQ(stats.peak_batch, 3);              // requests
  EXPECT_EQ(stats.peak_batch_tokens, 24);      // rows
  EXPECT_EQ(stats.steps, 4);
  EXPECT_EQ(stats.step_tokens, 24 + 9);
  EXPECT_DOUBLE_EQ(stats.mean_tokens_per_step, 33.0 / 4.0);
  // Without a draft every decode row is a k = 0 verify span: 3 steps x 3
  // spans, no proposals, one target forward per decode token.
  EXPECT_EQ(stats.verify_steps, 3);
  EXPECT_EQ(stats.verify_forwards, 9);
  EXPECT_EQ(stats.decode_tokens, 9);
  EXPECT_EQ(stats.proposed_tokens, 0);
  EXPECT_EQ(stats.accepted_tokens, 0);
  EXPECT_DOUBLE_EQ(stats.acceptance_rate, 0.0);
  EXPECT_DOUBLE_EQ(stats.target_forwards_per_decode_token, 1.0);
}

}  // namespace
}  // namespace qserve