// Prefix caching & parallel sampling at the engine level. The central
// invariants: a request served from a warm prefix cache produces a token
// stream BITWISE identical to a cold start (the KV bytes of a token prefix
// are a pure function of the prefix), across ISAs and thread counts;
// engine-level forks are page-aligned and therefore never trigger
// copy-on-write; and every test drains to pages_in_use() == 0 once the cache
// is cleared. The engine fuzzer (test_engine_fuzz.cpp) composes prefix
// caching and parallel sampling with preemption, faults, speculation and
// windows.
#include <cstdlib>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "harness.h"

namespace qserve {
namespace {

const ModelWeights& fixture_weights() { return toy_weights(toy_config(1)); }

// Prompts sharing a long system prefix (page_size = 16 tokens in the toy
// model's KV config) with short distinct user suffixes.
Workload shared_prefix_workload(int n, int prefix_len, uint64_t seed) {
  Workload w;
  Rng rng(seed);
  std::vector<int> prefix(static_cast<size_t>(prefix_len));
  for (auto& t : prefix) t = rng.uniform_int(0, 511);
  for (int i = 0; i < n; ++i) {
    auto p = prefix;
    const int suffix = rng.uniform_int(1, 6);
    for (int s = 0; s < suffix; ++s) p.push_back(rng.uniform_int(0, 511));
    w.prompts.push_back(std::move(p));
    w.max_new.push_back(rng.uniform_int(4, 10));
  }
  return w;
}

void pump(ServingEngine& engine) {
  int guard = 0;
  while (engine.step()) {
    if (++guard >= 50000) {
      ADD_FAILURE() << "engine must terminate";
      break;
    }
  }
}

TEST(PrefixCaching, WarmStreamsBitwiseIdenticalAcrossIsaAndThreads) {
  ConfigGuard guard(ConfigGuard::kNoFaults);
  const Workload w = shared_prefix_workload(5, /*prefix_len=*/96, 301);
  const auto solo = solo_streams(fixture_weights(), w);

  for_each_config(supported_isas(), {1, 8}, {0}, [&](const ConfigCell&) {
    QuantizedModel model(fixture_weights(), pool_scheme(64));
    EngineConfig cfg;
    cfg.prefix_caching = true;
    cfg.scheduler.prefill_chunk = 16;
    cfg.scheduler.max_batch = 4;
    ServingEngine engine(&model, cfg);

    // Cold request first (drained alone so its donation is in the index
    // before any other request is planned), then the warm batch.
    std::vector<int> ids;
    ids.push_back(engine.submit(w.prompts[0], w.max_new[0]));
    pump(engine);
    for (size_t i = 1; i < w.prompts.size(); ++i)
      ids.push_back(engine.submit(w.prompts[i], w.max_new[i]));
    pump(engine);

    const EngineStats& s = engine.stats();
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(engine.request(ids[i]).generated, solo[i]) << "request " << i;
      EXPECT_EQ(engine.request(ids[i]).finish_reason, FinishReason::kLength);
    }
    EXPECT_EQ(s.prefix_insertions, int64_t(w.prompts.size()))
        << "every completed prefill donates its distinct key";
    EXPECT_GE(s.prefix_hits, int64_t(w.prompts.size()) - 1);
    // Every hit skipped the full 96-token (6-page) shared prefix.
    EXPECT_EQ(s.prefill_tokens_saved, 96 * s.prefix_hits);
    EXPECT_EQ(s.prefix_tokens_reused, s.prefill_tokens_saved);
    // Engine forks are page-aligned; no writer ever lands in a shared
    // page, so the refactor's CoW machinery must never have fired.
    EXPECT_EQ(s.cow_page_copies, 0);
    EXPECT_GE(s.prefix_cache_entries, 1);
    EXPECT_GE(s.prefix_cache_pages, 6);

    // Drained but warm: the cache still holds pages. Clearing it is the
    // only thing standing between the engine and an empty pool.
    EXPECT_GT(model.kv_cache().pages_in_use(), 0);
    engine.clear_prefix_cache();
    EXPECT_EQ(model.kv_cache().pages_in_use(), 0);
    EXPECT_EQ(model.kv_cache().shared_pages(), 0);
  });
}

TEST(PrefixCaching, WarmFirstTokenTakesOneChunkStepColdTakesSix) {
  // The TTFT mechanism, pinned in steps: an 82-token prompt at
  // prefill_chunk=16 costs 6 chunk steps cold; warm, the 80-token (5-page)
  // aligned prefix is forked and only the 2-token tail is prefilled — first
  // token after 1 step, a 6x step-count improvement (the bench measures the
  // same effect in wall-clock on a 1024-token system prompt).
  ConfigGuard guard(ConfigGuard::kNoFaults);
  const Workload w = shared_prefix_workload(2, /*prefix_len=*/80, 302);
  const auto solo = solo_streams(fixture_weights(), w);
  QuantizedModel model(fixture_weights(), pool_scheme(64));
  EngineConfig cfg;
  cfg.prefix_caching = true;
  cfg.scheduler.prefill_chunk = 16;
  ServingEngine engine(&model, cfg);

  const int cold = engine.submit(w.prompts[0], w.max_new[0]);
  pump(engine);
  const int warm = engine.submit(w.prompts[1], w.max_new[1]);
  pump(engine);

  const Request& rc = engine.request(cold);
  const Request& rw = engine.request(warm);
  EXPECT_EQ(rc.generated, solo[0]);
  EXPECT_EQ(rw.generated, solo[1]);
  // first_token_step records the pre-increment step counter, so the number
  // of engine steps executed up to and including the sampling one is
  // (first - submitted + 1).
  const int64_t cold_ttft = rc.first_token_step - rc.submitted_step + 1;
  const int64_t warm_ttft = rw.first_token_step - rw.submitted_step + 1;
  EXPECT_EQ(cold_ttft, 6);
  EXPECT_EQ(warm_ttft, 1);
  EXPECT_GE(cold_ttft, 5 * warm_ttft);
  EXPECT_EQ(engine.stats().prefill_tokens_saved, 80);

  engine.clear_prefix_cache();
  EXPECT_EQ(model.kv_cache().pages_in_use(), 0);
}

TEST(PrefixCaching, EntryCapEvictsLruAndPressureEvictsBeforePreempting) {
  ConfigGuard guard(ConfigGuard::kNoFaults);
  // Three distinct prompts (no shared prefix) through a cap-2 cache.
  Rng rng(304);
  QuantizedModel model(fixture_weights(), pool_scheme(64));
  EngineConfig cfg;
  cfg.prefix_caching = true;
  cfg.prefix_cache_max_entries = 2;
  ServingEngine engine(&model, cfg);
  for (int i = 0; i < 3; ++i) {
    std::vector<int> p(20);
    for (auto& t : p) t = rng.uniform_int(0, 511);
    engine.submit(std::move(p), 4);
    pump(engine);
  }
  EXPECT_EQ(engine.stats().prefix_insertions, 3);
  EXPECT_GE(engine.stats().prefix_evictions, 1);
  EXPECT_LE(engine.stats().prefix_cache_entries, 2);

  // Pressure: a prompt that needs most of a small pool must reclaim cached
  // pages (prefix_evictions grows) instead of failing or preempting forever.
  QuantizedModel small(fixture_weights(), pool_scheme(8));
  ServingEngine engine2(&small, cfg);
  std::vector<int> warmup(32);
  for (auto& t : warmup) t = rng.uniform_int(0, 511);
  engine2.submit(warmup, 4);
  pump(engine2);
  EXPECT_EQ(engine2.stats().prefix_insertions, 1);
  std::vector<int> big(96);
  for (auto& t : big) t = rng.uniform_int(0, 511);
  const int id = engine2.submit(big, 4);
  pump(engine2);
  EXPECT_EQ(engine2.request(id).finish_reason, FinishReason::kLength);
  EXPECT_GE(engine2.stats().prefix_evictions, 1);
  engine2.clear_prefix_cache();
  EXPECT_EQ(small.kv_cache().pages_in_use(), 0);
  engine.clear_prefix_cache();
  EXPECT_EQ(model.kv_cache().pages_in_use(), 0);
}

}  // namespace
}  // namespace qserve
