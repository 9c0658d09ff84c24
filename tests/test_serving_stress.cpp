// Randomized stress tests for the scheduler: plan invariants under random
// workloads and full drain under repeated admission; plus the sampler's
// seed sensitivity. Engine liveness, preemption churn and pool conservation
// under random workloads are the engine fuzzer's (test_engine_fuzz.cpp).
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

TEST(EngineStress, SamplingTemperatureChangesOutputsGreedyDoesNot) {
  auto run = [&](float temp, uint64_t seed) {
    QuantizedModel model(weights(), QuantSchemeConfig::qserve_w4a8kv4_g128());
    EngineConfig cfg;
    cfg.temperature = temp;
    cfg.sample_seed = seed;
    ServingEngine engine(&model, cfg);
    const int id = engine.submit({5, 6, 7}, 8);
    engine.drain();
    return engine.request(id).generated;
  };
  EXPECT_EQ(run(0.0f, 1), run(0.0f, 2));  // greedy: seed-independent
  EXPECT_EQ(run(1.5f, 3), run(1.5f, 3));  // sampled: seed-deterministic
  EXPECT_NE(run(1.5f, 3), run(1.5f, 4));  // ...and seed-sensitive
}

}  // namespace
}  // namespace qserve
