// Randomized stress tests for the serving stack: scheduler plan invariants
// under random workloads, engine liveness under mixed request shapes,
// preemption churn in a tiny KV pool, and pool conservation across churn.
#include <gtest/gtest.h>

#include "harness.h"

namespace qserve {
namespace {

TEST(SchedulerStress, PlanNeverExceedsBatchChunkOrPageBudget) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const int max_batch = rng.uniform_int(1, 6);
    const int chunk = rng.uniform_int(4, 64);
    const int page_size = 8;
    Scheduler s({.max_batch = max_batch, .prefill_chunk = chunk}, page_size,
                /*n_layers=*/1);
    std::vector<Request> reqs(16);
    for (auto& r : reqs) {
      r.prompt.assign(static_cast<size_t>(rng.uniform_int(1, 30)), 0);
      r.max_new_tokens = rng.uniform_int(1, 20);
      s.enqueue(&r);
    }
    const int64_t free_pages = rng.uniform_int(0, 20);
    const StepPlan plan = s.plan({}, free_pages);
    EXPECT_LE(static_cast<int>(plan.admitted.size()), max_batch);
    int64_t tokens = 0, pages = 0;
    for (const PrefillWork& w : plan.prefills) {
      EXPECT_GT(w.tokens, 0);
      EXPECT_LE(w.tokens, static_cast<int>(w.req->prompt.size()));
      tokens += w.tokens;
      pages += (w.tokens + page_size - 1) / page_size;  // from empty seqs
    }
    EXPECT_LE(tokens, chunk);
    EXPECT_LE(pages, free_pages);
  }
}

TEST(SchedulerStress, DrainsCompletelyWithRepeatedAdmission) {
  Rng rng(2);
  Scheduler s({.max_batch = 3, .prefill_chunk = 64}, 16, 1);
  std::vector<Request> reqs(20);
  for (auto& r : reqs) {
    r.prompt.assign(static_cast<size_t>(rng.uniform_int(1, 10)), 0);
    r.max_new_tokens = rng.uniform_int(1, 10);
    s.enqueue(&r);
  }
  int total = 0;
  int guard = 0;
  while (s.queued() > 0 && guard++ < 100) {
    total += static_cast<int>(s.plan({}, 1000).admitted.size());
  }
  EXPECT_EQ(total, 20);
}

const ModelWeights& weights() { return toy_weights(toy_config(1)); }

TEST(EngineStress, RandomWorkloadAllComplete) {
  QuantizedModel model(weights(), QuantSchemeConfig::qserve_w4a8kv4_g128());
  EngineConfig cfg;
  cfg.scheduler.max_batch = 3;
  cfg.temperature = 1.0f;
  ServingEngine engine(&model, cfg);

  Rng rng(3);
  const Workload w = random_workload(rng, 10, {1, 12}, {1, 8});
  std::vector<int> ids;
  for (size_t i = 0; i < w.prompts.size(); ++i)
    ids.push_back(engine.submit(w.prompts[i], w.max_new[i]));
  const EngineStats stats = engine.run_to_completion();
  int64_t total = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    const Request& r = engine.request(ids[i]);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(static_cast<int>(r.generated.size()), w.max_new[i]);
    total += w.max_new[i];
  }
  // Every request's first token is counted separately from decode tokens.
  EXPECT_EQ(stats.first_tokens, static_cast<int64_t>(ids.size()));
  EXPECT_EQ(stats.decode_tokens, total - static_cast<int64_t>(ids.size()));
  EXPECT_EQ(model.kv_cache().pages_in_use(), 0);
  EXPECT_LE(stats.peak_batch, 3);
}

TEST(EngineStress, SubmissionsBetweenStepsJoinTheBatch) {
  QuantizedModel model(weights(), QuantSchemeConfig::qserve_w4a8kv4_g128());
  EngineConfig cfg;
  cfg.scheduler.max_batch = 4;
  ServingEngine engine(&model, cfg);
  Rng rng(4);
  std::vector<int> ids;
  ids.push_back(engine.submit({1, 2}, 12));
  int steps = 0;
  while (engine.step()) {
    if (steps < 5) {
      std::vector<int> prompt(static_cast<size_t>(rng.uniform_int(1, 4)));
      for (auto& t : prompt) t = rng.uniform_int(0, 511);
      ids.push_back(engine.submit(prompt, 3 + steps));
    }
    ASSERT_LT(++steps, 200) << "engine must terminate";
  }
  for (int id : ids) EXPECT_TRUE(engine.request(id).done());
  EXPECT_GE(engine.stats().peak_batch, 2);
}

TEST(EngineStress, KvPagesConservedAcrossChurn) {
  // Run three waves of requests through the same engine; the pool must
  // return to empty between waves (no leaks, no double frees).
  QuantizedModel model(weights(), QuantSchemeConfig::qserve_w4a8kv4_g128());
  EngineConfig cfg;
  cfg.scheduler.max_batch = 2;
  ServingEngine engine(&model, cfg);
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 3; ++i)
      engine.submit({wave * 3 + i + 1, 2, 3}, 2 + i);
    engine.run_to_completion();
    EXPECT_EQ(model.kv_cache().pages_in_use(), 0) << "wave " << wave;
  }
}

TEST(EngineStress, PreemptionChurnStreamsMatchSoloRuns) {
  // A 4-page pool with a crowded batch forces repeated eviction/resume.
  // Greedy decoding is deterministic, so every request must emit exactly
  // its solo model-level stream, regardless of how many
  // times it was preempted and re-prefilled.
  Rng rng(5);
  const Workload w = random_workload(rng, 6, {3, 12}, {8, 20});
  const auto solo = solo_streams(weights(), w);

  EngineRun run;
  run.target = &weights();
  run.scheme = pool_scheme(4);  // 64 tokens, 1 layer
  run.cfg.scheduler.max_batch = 4;
  const EngineOutcome out = run_engine(run, w);  // expects an empty pool
  for (size_t i = 0; i < out.streams.size(); ++i)
    EXPECT_EQ(out.streams[i], solo[i]) << "request " << i;
  // The pool is small enough that the batch cannot coexist peacefully.
  EXPECT_GE(out.stats.preemptions, 1);
}

TEST(EngineStress, SamplingTemperatureChangesOutputsGreedyDoesNot) {
  auto run = [&](float temp, uint64_t seed) {
    QuantizedModel model(weights(), QuantSchemeConfig::qserve_w4a8kv4_g128());
    EngineConfig cfg;
    cfg.temperature = temp;
    cfg.sample_seed = seed;
    ServingEngine engine(&model, cfg);
    const int id = engine.submit({5, 6, 7}, 8);
    engine.run_to_completion();
    return engine.request(id).generated;
  };
  EXPECT_EQ(run(0.0f, 1), run(0.0f, 2));  // greedy: seed-independent
  EXPECT_EQ(run(1.5f, 3), run(1.5f, 3));  // sampled: seed-deterministic
  EXPECT_NE(run(1.5f, 3), run(1.5f, 4));  // ...and seed-sensitive
}

}  // namespace
}  // namespace qserve
