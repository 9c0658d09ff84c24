// Scheduler unit tests (decode-priority planning, chunked prefill shares,
// preemption) + serving-engine integration tests (continuous batching over
// the real quantized model and paged KV cache).
#include <gtest/gtest.h>

#include "harness.h"
#include "serving/engine.h"

namespace qserve {
namespace {

// --- scheduler ------------------------------------------------------------------

Request make_request(int id, int prompt_len, int max_new) {
  Request r;
  r.id = id;
  r.prompt.assign(static_cast<size_t>(prompt_len), 1);
  r.max_new_tokens = max_new;
  return r;
}

// A request mid-decode with `kv` tokens already in the cache.
Request make_decoding(int id, int kv_tokens) {
  Request r = make_request(id, kv_tokens, 64);
  r.state = RequestState::kDecoding;
  r.generated.push_back(1);
  r.prefill_pos = kv_tokens;  // prefill completed
  return r;
}

// A request mid-prefill with `remaining` context tokens still to run.
Request make_prefilling(int id, int prompt_len, int done = 0) {
  Request r = make_request(id, prompt_len, 64);
  r.state = RequestState::kPrefilling;
  r.prefill_pos = done;
  return r;
}

Scheduler make_sched(int max_batch, int chunk, int page_size = 16,
                     int n_layers = 1) {
  return Scheduler({.max_batch = max_batch, .prefill_chunk = chunk},
                   page_size, n_layers);
}

TEST(Scheduler, AdmitsFcfsUpToMaxBatch) {
  Scheduler s = make_sched(2, 128);
  Request a = make_request(0, 4, 4), b = make_request(1, 4, 4),
          c = make_request(2, 4, 4);
  s.enqueue(&a);
  s.enqueue(&b);
  s.enqueue(&c);
  const StepPlan plan = s.plan({}, 1000);
  ASSERT_EQ(plan.admitted.size(), 2u);
  EXPECT_EQ(plan.admitted[0]->id, 0);
  EXPECT_EQ(plan.admitted[1]->id, 1);
  EXPECT_EQ(plan.prefills.size(), 2u);  // both get chunk shares immediately
  EXPECT_EQ(s.queued(), 1);
}

TEST(Scheduler, NoAdmissionWhenBatchFull) {
  Scheduler s = make_sched(2, 128);
  Request a = make_decoding(0, 8), b = make_decoding(1, 8);
  Request c = make_request(2, 4, 4);
  s.enqueue(&c);
  const StepPlan plan = s.plan({&a, &b}, 1000);
  EXPECT_EQ(plan.admitted.size(), 0u);
  EXPECT_EQ(plan.decodes.size(), 2u);  // decodes always run
  EXPECT_EQ(s.queued(), 1);
}

TEST(Scheduler, FcfsNoAdmissionWithoutPages) {
  // No free pages -> head not admitted, and nothing behind it skips ahead.
  Scheduler s = make_sched(8, 128);
  Request a = make_request(0, 100, 10), b = make_request(1, 2, 2);
  s.enqueue(&a);
  s.enqueue(&b);
  const StepPlan plan = s.plan({}, 0);
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(s.queued(), 2);
}

TEST(Scheduler, DecodeReservationsBlockAdmission) {
  // One decoding request sits exactly at a page boundary: its next token
  // takes the only free page, so the queued request must wait (decode
  // priority — queued prefill never starves a running decode).
  Scheduler s = make_sched(8, 128);
  Request a = make_decoding(0, 16);  // 16 tokens = 1 full page
  Request b = make_request(1, 4, 4);
  s.enqueue(&b);
  const StepPlan plan = s.plan({&a}, 1);
  EXPECT_EQ(plan.decodes.size(), 1u);
  EXPECT_EQ(plan.admitted.size(), 0u);
  EXPECT_EQ(s.queued(), 1);
}

TEST(Scheduler, EvictsYoungestWhenDecodesDoNotFit) {
  Scheduler s = make_sched(8, 128);
  Request a = make_decoding(0, 16), b = make_decoding(1, 16);
  const StepPlan plan = s.plan({&a, &b}, 1);  // both need a page, one free
  ASSERT_EQ(plan.evicted.size(), 1u);
  EXPECT_EQ(plan.evicted[0]->id, 1);  // youngest (back of running order)
  ASSERT_EQ(plan.decodes.size(), 1u);
  EXPECT_EQ(plan.decodes[0]->id, 0);
  EXPECT_EQ(s.queued(), 1);  // victim re-queued at the front
  // No admission on an eviction step: the freed pages serve the decodes.
  EXPECT_EQ(plan.admitted.size(), 0u);
}

TEST(Scheduler, EvictionRequeuesOldestEvicteeFirst) {
  Scheduler s = make_sched(8, 128);
  Request a = make_decoding(0, 16), b = make_decoding(1, 16),
          c = make_decoding(2, 16);
  const StepPlan plan = s.plan({&a, &b, &c}, 0);
  ASSERT_EQ(plan.evicted.size(), 2u);
  EXPECT_EQ(plan.evicted[0]->id, 2);  // youngest evicted first
  EXPECT_EQ(plan.evicted[1]->id, 1);
  // Queue order must preserve original arrival order among evictees.
  Request d = make_request(3, 4, 4);
  s.enqueue(&d);  // behind both evictees
  b.state = RequestState::kQueued;
  b.prefill_pos = 0;
  c.state = RequestState::kQueued;
  c.prefill_pos = 0;
  const StepPlan next = s.plan({&a}, 1000);
  ASSERT_GE(next.admitted.size(), 2u);
  EXPECT_EQ(next.admitted[0]->id, 1);
  EXPECT_EQ(next.admitted[1]->id, 2);
}

TEST(Scheduler, ChunkSharedShortestRemainingFirst) {
  // A long prompt mid-prefill must not monopolize the chunk: the short
  // request completes its prefill in this step (TTFT bounded by one chunk).
  Scheduler s = make_sched(8, 128);
  Request a = make_prefilling(0, 1000);  // oldest, huge remaining
  Request b = make_prefilling(1, 8);
  const StepPlan plan = s.plan({&a, &b}, 1 << 20);
  ASSERT_EQ(plan.prefills.size(), 2u);
  EXPECT_EQ(plan.prefills[0].req->id, 1);  // shortest first
  EXPECT_EQ(plan.prefills[0].tokens, 8);
  EXPECT_EQ(plan.prefills[1].req->id, 0);
  EXPECT_EQ(plan.prefills[1].tokens, 120);  // rest of the chunk
}

TEST(Scheduler, OldestPrefillKeepsHalfTheChunk) {
  // Anti-starvation: short arrivals cannot take more than half the chunk
  // away from the oldest prefilling request.
  Scheduler s = make_sched(8, 128);
  Request a = make_prefilling(0, 1000);
  Request b = make_prefilling(1, 500);
  const StepPlan plan = s.plan({&a, &b}, 1 << 20);
  ASSERT_EQ(plan.prefills.size(), 2u);
  EXPECT_EQ(plan.prefills[0].req->id, 1);
  EXPECT_EQ(plan.prefills[0].tokens, 64);  // capped at chunk/2
  EXPECT_EQ(plan.prefills[1].req->id, 0);
  EXPECT_EQ(plan.prefills[1].tokens, 64);
}

TEST(Scheduler, PrefillSharesClampedToFreePages) {
  Scheduler s = make_sched(8, 128);
  Request a = make_prefilling(0, 100);
  const StepPlan one_layer = s.plan({&a}, 2);
  ASSERT_EQ(one_layer.prefills.size(), 1u);
  EXPECT_EQ(one_layer.prefills[0].tokens, 32);  // 2 pages x 16 tokens

  Scheduler s2 = make_sched(8, 128, /*page_size=*/16, /*n_layers=*/2);
  const StepPlan two_layer = s2.plan({&a}, 3);
  ASSERT_EQ(two_layer.prefills.size(), 1u);
  EXPECT_EQ(two_layer.prefills[0].tokens, 16);  // floor(3/2) pages per layer
}

// --- engine integration ------------------------------------------------------------

TEST(ServingEngine, CompletesAllRequests) {
  QuantizedModel model(toy_weights(toy_config(1)),
                       QuantSchemeConfig::qserve_w4a8kv4_g128());
  EngineConfig cfg;
  cfg.scheduler.max_batch = 3;
  ServingEngine engine(&model, cfg);
  const int a = engine.submit({1, 2, 3}, 4);
  const int b = engine.submit({5, 6}, 6);
  const int c = engine.submit({7, 8, 9, 10}, 2);
  const EngineStats stats = engine.drain();

  EXPECT_EQ(engine.request(a).generated.size(), 4u);
  EXPECT_EQ(engine.request(b).generated.size(), 6u);
  EXPECT_EQ(engine.request(c).generated.size(), 2u);
  // First tokens (sampled when prefill completes) are not decode tokens.
  EXPECT_EQ(stats.first_tokens, 3);
  EXPECT_EQ(stats.decode_tokens, 9);
  EXPECT_EQ(stats.prefill_tokens, 9);
  EXPECT_EQ(stats.peak_batch, 3);
  EXPECT_EQ(stats.preemptions, 0);
  // All pages released at the end.
  EXPECT_EQ(model.kv_cache().pages_in_use(), 0);
}

TEST(ServingEngine, ChunkedPrefillMatchesMonolithicBitwise) {
  // Splitting a prompt into 7-token chunks must reproduce the monolithic
  // prefill's token stream exactly — the causal mask offsets against the
  // cached prefix and every per-token computation is position-local.
  const ModelWeights& weights = toy_weights(toy_config(1));
  std::vector<int> prompt;
  for (int i = 0; i < 40; ++i) prompt.push_back((7 * i + 3) % 512);

  auto run = [&](int chunk) {
    QuantizedModel model(weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
    EngineConfig cfg;
    cfg.scheduler.prefill_chunk = chunk;
    ServingEngine engine(&model, cfg);
    const int id = engine.submit(prompt, 6);
    engine.drain();
    return std::make_pair(engine.request(id).generated,
                          engine.request(id).first_token_step);
  };
  const auto [monolithic, first_mono] = run(128);
  const auto [chunked, first_chunked] = run(7);
  EXPECT_EQ(monolithic, chunked);
  EXPECT_EQ(first_mono, 0);   // whole prompt in one step
  EXPECT_EQ(first_chunked, 5);  // ceil(40/7) = 6 chunk steps
}

TEST(ServingEngine, ContinuousBatchingJoinsMidFlight) {
  // max_batch=1 forces the second request to join only after the first
  // finishes; with max_batch=2 it joins while the first is decoding.
  const ModelWeights& weights = toy_weights(toy_config(1));
  QuantizedModel model(weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  EngineConfig cfg;
  cfg.scheduler.max_batch = 2;
  ServingEngine engine(&model, cfg);
  engine.submit({1, 2, 3}, 8);
  engine.step();  // request 0 prefilled + 1 token
  const int late = engine.submit({9, 9}, 2);
  const EngineStats stats = engine.drain();
  EXPECT_EQ(stats.peak_batch, 2);
  EXPECT_EQ(engine.request(late).generated.size(), 2u);
}

TEST(ServingEngine, TinyPoolAdmitsIncrementally) {
  // Regression (replaces the conservative max-final-length reservation):
  // with a 2-page pool, request A (8 prompt + 24 new) will eventually need
  // both pages, but admission is incremental, so B (8 + 8, one page) runs
  // *concurrently* and finishes before A's KV spills into the second page.
  // The old engine serialized them (peak batch 1).
  const ModelWeights& weights = toy_weights(toy_config(1));
  QuantizedModel model(weights, pool_scheme(2));  // 2 pages x 16 tokens
  EngineConfig cfg;
  cfg.scheduler.max_batch = 4;
  ServingEngine engine(&model, cfg);
  const int a = engine.submit(std::vector<int>(8, 2), 24);
  const int b = engine.submit(std::vector<int>(8, 3), 8);
  const EngineStats stats = engine.drain();  // must not throw
  EXPECT_EQ(engine.request(a).generated.size(), 24u);
  EXPECT_EQ(engine.request(b).generated.size(), 8u);
  EXPECT_EQ(stats.peak_batch, 2);
  EXPECT_EQ(stats.preemptions, 0);
  EXPECT_EQ(model.kv_cache().pages_in_use(), 0);
}

TEST(Scheduler, PrefillDeadlockResolvedByEvictingYoungest) {
  // Two mid-prefill requests jointly exhaust the pool with no decoder to
  // drive eviction: both page-aligned, zero pages free. The planner must
  // evict the youngest so the oldest progresses, instead of returning an
  // empty (stalled) plan.
  Scheduler s = make_sched(8, 32);
  Request a = make_prefilling(0, 24, /*done=*/16);
  Request b = make_prefilling(1, 17, /*done=*/16);
  const StepPlan plan = s.plan({&a, &b}, 0);  // a holds 1 page, b holds 1
  ASSERT_EQ(plan.evicted.size(), 1u);
  EXPECT_EQ(plan.evicted[0]->id, 1);
  ASSERT_EQ(plan.prefills.size(), 1u);
  EXPECT_EQ(plan.prefills[0].req->id, 0);
  EXPECT_EQ(plan.prefills[0].tokens, 8);  // a's remaining 24 - 16
  EXPECT_EQ(s.queued(), 1);
}

TEST(ServingEngine, ConcurrentPrefillsLargerThanPoolComplete) {
  // Regression: each request fits the 2-page (32-token) pool alone, but
  // their prefills together exhaust it mid-flight with nothing decoding.
  // The engine used to abort ("serving stalled"); preemption must instead
  // serialize them and both must finish.
  const ModelWeights& weights = toy_weights(toy_config(1));
  QuantizedModel model(weights, pool_scheme(2));
  EngineConfig cfg;
  cfg.scheduler.max_batch = 4;
  cfg.scheduler.prefill_chunk = 32;
  ServingEngine engine(&model, cfg);
  const int a = engine.submit(std::vector<int>(24, 2), 8);  // 32 tokens max
  const int b = engine.submit(std::vector<int>(17, 3), 7);  // 24 tokens max
  const EngineStats stats = engine.drain();  // must not throw
  EXPECT_EQ(engine.request(a).generated.size(), 8u);
  EXPECT_EQ(engine.request(b).generated.size(), 7u);
  EXPECT_GE(stats.preemptions, 1);
  EXPECT_EQ(model.kv_cache().pages_in_use(), 0);
}

TEST(ServingEngine, LongPromptDoesNotDelayShortRequestsTtft) {
  // Acceptance: with prefill_chunk=128, a 1024-token prompt admitted
  // alongside short requests leaves the short requests' mean TTFT within
  // one chunk-step of their solo latency.
  const ModelWeights& weights = toy_weights(toy_config(1));
  const auto scheme = QuantSchemeConfig::qserve_w4a8kv4_g128();
  std::vector<int> long_prompt;
  for (int i = 0; i < 1024; ++i) long_prompt.push_back((5 * i + 1) % 512);
  const std::vector<int> short_prompt = {4, 8, 15, 16, 23, 42, 7, 9};

  int64_t solo_ttft;
  {
    QuantizedModel model(weights, scheme);
    ServingEngine engine(&model, EngineConfig{});
    const int id = engine.submit(short_prompt, 4);
    engine.drain();
    const Request& r = engine.request(id);
    solo_ttft = r.first_token_step - r.submitted_step;
  }

  QuantizedModel model(weights, scheme);
  EngineConfig cfg;
  cfg.scheduler.prefill_chunk = 128;
  ServingEngine engine(&model, cfg);
  const int big = engine.submit(long_prompt, 4);
  std::vector<int> shorts;
  for (int i = 0; i < 3; ++i) shorts.push_back(engine.submit(short_prompt, 4));
  engine.drain();

  double mean_ttft = 0;
  for (int id : shorts) {
    const Request& r = engine.request(id);
    mean_ttft +=
        double(r.first_token_step - r.submitted_step) / double(shorts.size());
  }
  EXPECT_LE(mean_ttft, double(solo_ttft) + 1.0);
  // The long prompt still progresses at ~a chunk per step: 1024 tokens at
  // >= 64/step (oldest-keeps-half) and <= 128/step.
  const Request& lr = engine.request(big);
  EXPECT_GE(lr.first_token_step, 1024 / 128 - 1);
  EXPECT_LE(lr.first_token_step, 1024 / 64 + 1);
  EXPECT_EQ(lr.generated.size(), 4u);
}

TEST(ServingEngine, StatsSplitPrefillAndDecodeTime) {
  const ModelWeights& weights = toy_weights(toy_config(1));
  QuantizedModel model(weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  ServingEngine engine(&model, EngineConfig{});
  engine.submit(std::vector<int>(24, 5), 4);
  engine.submit({1, 2, 3}, 6);
  const EngineStats stats = engine.drain();
  EXPECT_EQ(stats.first_tokens, 2);
  EXPECT_EQ(stats.decode_tokens, 8);  // (4 - 1) + (6 - 1)
  EXPECT_EQ(stats.prefill_tokens, 27);
  EXPECT_GT(stats.prefill_seconds, 0.0);
  EXPECT_GT(stats.decode_seconds, 0.0);
  EXPECT_LE(stats.prefill_seconds + stats.decode_seconds,
            stats.wall_seconds + 1e-9);
  EXPECT_GT(stats.decode_tokens_per_second, 0.0);
  EXPECT_GT(stats.prefill_tokens_per_second, 0.0);
  // Occupancy stats count rows, not requests: the first step stacks a
  // 24-token and a 3-token prefill chunk into one 27-row forward.
  EXPECT_EQ(stats.peak_batch, 2);
  EXPECT_EQ(stats.peak_batch_tokens, 27);
  // Every executed row is either a prefill-chunk row or a decode row (first
  // tokens are sampled from prefill rows, so they add no rows; this identity
  // holds on preemption-free runs).
  EXPECT_EQ(stats.step_tokens, stats.prefill_tokens + stats.decode_tokens);
  EXPECT_GT(stats.mean_tokens_per_step, 0.0);
}

TEST(ServingEngine, FirstTokenLatencyOrderedByArrival) {
  const ModelWeights& weights = toy_weights(toy_config(1));
  QuantizedModel model(weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  EngineConfig cfg;
  cfg.scheduler.max_batch = 1;  // strictly serial
  ServingEngine engine(&model, cfg);
  const int a = engine.submit({1}, 2);
  const int b = engine.submit({2}, 2);
  engine.drain();
  EXPECT_LT(engine.request(a).first_token_step,
            engine.request(b).first_token_step);
}

}  // namespace
}  // namespace qserve
