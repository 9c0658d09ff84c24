// Long-context serving: sliding-window attention with sinks, end to end.
//
// Cache layer: the page ring recycles the oldest non-sink page in place, so
// a windowed sequence's footprint is flat no matter how long it grows;
// resident bytes are bitwise the bytes a full-attention sequence holds at
// the same positions; truncate-then-append across the ring boundary matches
// a sequence that never held the rejected tail. Model layer: window >=
// context is bitwise identical to full attention. Engine layer: option
// validation rejects loudly, and a long generation completes in a pool a
// full-attention run could never fit. The engine fuzzer
// (test_engine_fuzz.cpp) holds windowed streams to the solo reference
// across ISA x threads x TP shards x preemption x faults x speculation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "harness.h"
#include "kvcache/paged_kv_cache.h"

namespace qserve {
namespace {

KvCacheConfig ring_cfg(int max_pages = 256) {
  KvCacheConfig cfg;
  cfg.n_kv_heads = 2;
  cfg.head_dim = 8;
  cfg.page_size = 4;
  cfg.precision = KvPrecision::kInt4;
  cfg.max_pages = max_pages;
  return cfg;
}

std::vector<float> random_vec(Rng& rng, int n) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng.normal();
  return v;
}

// --- cache layer: page ring ---------------------------------------------------

TEST(KvWindow, PageCapArithmeticAndValidation) {
  const KvCacheConfig cfg = ring_cfg();
  // sink pages + window pages + ceil(slack) pages + 1 boundary page.
  EXPECT_EQ(PagedKvCache::window_page_cap(cfg, 0, 8, 3), 0 + 2 + 1 + 1);
  EXPECT_EQ(PagedKvCache::window_page_cap(cfg, 4, 8, 4), 1 + 2 + 1 + 1);
  EXPECT_EQ(PagedKvCache::window_page_cap(cfg, 8, 12, 0), 2 + 3 + 0 + 1);

  PagedKvCache cache(cfg);
  const int seq = cache.alloc_sequence();
  // Page-alignment and positivity are QS_CHECKed loudly.
  EXPECT_THROW(cache.set_window(seq, 0, 6, 4), CheckError);   // window % page
  EXPECT_THROW(cache.set_window(seq, 2, 8, 4), CheckError);   // sink % page
  EXPECT_THROW(cache.set_window(seq, 0, 0, 4), CheckError);   // no window
  EXPECT_THROW(cache.set_window(seq, 0, 8, 0), CheckError);   // no slack
  cache.set_window(seq, 4, 8, 4);
  EXPECT_THROW(cache.set_window(seq, 4, 8, 4), CheckError);   // double install
  cache.free_sequence(seq);
  // Installing after the sequence outgrew the ring's identity prefix throws.
  const int late = cache.alloc_sequence();
  Rng rng(11);
  const auto k = random_vec(rng, 16), v = random_vec(rng, 16);
  for (int t = 0; t < 40; ++t) cache.append_batch(late, k.data(), v.data(), 1);
  EXPECT_THROW(cache.set_window(late, 0, 8, 4), CheckError);
  cache.free_sequence(late);
  EXPECT_EQ(cache.pages_in_use(), 0);
}

TEST(KvWindow, RingRecyclesInPlaceWithFlatFootprint) {
  // 200 appended tokens, footprint capped at window_page_cap, and every
  // resident byte bitwise equal to a full-attention shadow sequence (the
  // per-token quantization is position-independent, so residency is the only
  // difference).
  const KvCacheConfig cfg = ring_cfg();
  PagedKvCache cache(cfg);
  PagedKvCache shadow(ring_cfg(1024));
  const int64_t sink = 4, window = 8, slack = 4;
  const int64_t cap = PagedKvCache::window_page_cap(cfg, sink, window, slack);
  const int seq = cache.alloc_sequence();
  const int ref = shadow.alloc_sequence();
  cache.set_window(seq, sink, window, slack);
  Rng rng(12);
  int64_t peak = 0;
  for (int t = 0; t < 200; ++t) {
    const auto k = random_vec(rng, 16), v = random_vec(rng, 16);
    cache.append_batch(seq, k.data(), v.data(), 1);
    shadow.append_batch(ref, k.data(), v.data(), 1);
    peak = std::max(peak, cache.pages_in_use());
  }
  EXPECT_EQ(cache.seq_len(seq), 200);
  EXPECT_LE(peak, cap);
  EXPECT_GT(cache.recycled_pages(), 0);
  // After the ring fills the footprint is exactly flat.
  EXPECT_EQ(cache.pages_in_use(), peak);

  Tensor k_vis, v_vis;
  const int64_t tail0 = cache.gather(seq, k_vis, v_vis);
  // Retained tail: at least the window, at most the whole ring (window +
  // slack rounded up to whole pages + the boundary page).
  EXPECT_GE(tail0, 200 - window - slack - cfg.page_size);
  EXPECT_LE(tail0, 200 - window);
  ASSERT_EQ(k_vis.rows(), sink + (200 - tail0));
  Tensor k_ref, v_ref;
  // A plain sequence gathers every row: no sinks, tail at position 0.
  EXPECT_EQ(shadow.gather(ref, k_ref, v_ref), 0);
  ASSERT_EQ(k_ref.rows(), shadow.seq_len(ref));
  for (int64_t r = 0; r < k_vis.rows(); ++r) {
    const int64_t logical = r < sink ? r : tail0 + (r - sink);
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(k_vis.at2(r, i), k_ref.at2(logical, i)) << r << "," << i;
      ASSERT_EQ(v_vis.at2(r, i), v_ref.at2(logical, i)) << r << "," << i;
    }
  }
  cache.free_sequence(seq);
  shadow.free_sequence(ref);
  EXPECT_EQ(cache.pages_in_use(), 0);
}

TEST(KvWindow, TruncateAcrossRingMatchesNeverAppended) {
  // Speculative rollback across the ring boundary: append a rejected tail,
  // truncate it, append the real tokens — resident state must be bitwise a
  // sequence that never held the tail.
  const int64_t sink = 4, window = 8, slack = 4;
  Rng rng(13);
  std::vector<std::vector<float>> hist_k, hist_v, next_k, next_v;
  for (int t = 0; t < 40; ++t) {
    hist_k.push_back(random_vec(rng, 16));
    hist_v.push_back(random_vec(rng, 16));
  }
  for (int t = 0; t < 3; ++t) {
    next_k.push_back(random_vec(rng, 16));
    next_v.push_back(random_vec(rng, 16));
  }
  PagedKvCache a(ring_cfg()), b(ring_cfg());
  const int sa = a.alloc_sequence(), sb = b.alloc_sequence();
  a.set_window(sa, sink, window, slack);
  b.set_window(sb, sink, window, slack);
  for (int t = 0; t < 40; ++t) {
    a.append_batch(sa, hist_k[size_t(t)].data(), hist_v[size_t(t)].data(), 1);
    b.append_batch(sb, hist_k[size_t(t)].data(), hist_v[size_t(t)].data(), 1);
  }
  // Rejected tail on `a` only, then rollback.
  for (int t = 0; t < 3; ++t)
    a.append_batch(sa, next_v[size_t(t)].data(), next_k[size_t(t)].data(), 1);
  a.truncate_sequence(sa, 40);
  for (int t = 0; t < 3; ++t) {
    a.append_batch(sa, next_k[size_t(t)].data(), next_v[size_t(t)].data(), 1);
    b.append_batch(sb, next_k[size_t(t)].data(), next_v[size_t(t)].data(), 1);
  }
  Tensor ka, va, kb, vb;
  const int64_t ta = a.gather(sa, ka, va);
  const int64_t tb = b.gather(sb, kb, vb);
  EXPECT_EQ(ta, tb);
  ASSERT_EQ(ka.rows(), kb.rows());
  for (int64_t r = 0; r < ka.rows(); ++r)
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(ka.at2(r, i), kb.at2(r, i)) << r << "," << i;
      ASSERT_EQ(va.at2(r, i), vb.at2(r, i)) << r << "," << i;
    }
  a.free_sequence(sa);
  b.free_sequence(sb);
  EXPECT_EQ(a.pages_in_use(), 0);
}

TEST(KvWindow, ForkRestrictedToNeverRecycledPages) {
  const int64_t sink = 4, window = 8, slack = 4;
  PagedKvCache cache(ring_cfg());
  const int seq = cache.alloc_sequence();
  cache.set_window(seq, sink, window, slack);
  Rng rng(14);
  // While nothing has been recycled yet, any prefix is forkable.
  for (int t = 0; t < 10; ++t) {
    const auto k = random_vec(rng, 16), v = random_vec(rng, 16);
    cache.append_batch(seq, k.data(), v.data(), 1);
  }
  const int early = cache.fork_sequence(seq, 8);
  cache.free_sequence(early);
  // Grow past the ring: only the sink prefix stays forkable.
  for (int t = 10; t < 60; ++t) {
    const auto k = random_vec(rng, 16), v = random_vec(rng, 16);
    cache.append_batch(seq, k.data(), v.data(), 1);
  }
  ASSERT_GT(cache.recycled_pages(), 0);
  const int sinks = cache.fork_sequence(seq, sink);
  cache.free_sequence(sinks);
  EXPECT_THROW(cache.fork_sequence(seq, sink + 8), CheckError);
  cache.free_sequence(seq);
  EXPECT_EQ(cache.pages_in_use(), 0);
}

// --- model layer: window >= context == full attention -------------------------

TEST(ModelWindow, WindowCoveringContextIsBitwiseFullAttention) {
  // Every row of a windowed sequence whose context never exceeds sinks +
  // window attends the identical adjacent range as full attention, so the
  // logits must match bitwise — prefill chunks and decode steps alike.
  ConfigGuard guard;
  const ModelWeights& weights = toy_weights(toy_config(1));
  const QuantSchemeConfig scheme = QuantSchemeConfig::qserve_w4a8kv4_g128();
  std::vector<int> prompt(24);
  Rng rng(15);
  for (auto& t : prompt) t = rng.uniform_int(0, 511);
  QuantizedModel full(weights, scheme), windowed(weights, scheme);
  const int sf = full.begin_sequence();
  const int sw = windowed.begin_sequence();
  windowed.set_sequence_window(sw, 16, 64, 128);  // 24 + 12 << 16 + 64
  Tensor lf = full.prefill(sf, prompt);
  Tensor lw = windowed.prefill(sw, prompt);
  for (int step = 0; step < 12; ++step) {
    ASSERT_EQ(lf.numel(), lw.numel());
    int arg = 0;
    for (int64_t i = 0; i < lf.numel(); ++i) {
      ASSERT_EQ(lf.data()[i], lw.data()[i]) << "step " << step << " i " << i;
      if (lf.data()[i] > lf.data()[arg]) arg = int(i);
    }
    lf = full.decode_step(sf, arg);
    lw = windowed.decode_step(sw, arg);
  }
  full.end_sequence(sf);
  windowed.end_sequence(sw);
}

// --- engine layer -------------------------------------------------------------

TEST(EngineWindow, InvalidOptionsRejectLoudly) {
  ConfigGuard guard;
  const ModelWeights& weights = toy_weights(toy_config(1));
  QuantizedModel model(weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  ServingEngine engine(&model, EngineConfig{});
  auto rejected = [&](RequestOptions opts) {
    const int id = engine.submit({1, 2, 3}, opts, nullptr, nullptr);
    return engine.request(id).finish_reason == FinishReason::kRejected;
  };
  RequestOptions neg;
  neg.attention_window = -16;
  EXPECT_TRUE(rejected(neg));
  RequestOptions unaligned;
  unaligned.attention_window = 24;  // not a multiple of the 16-token page
  EXPECT_TRUE(rejected(unaligned));
  RequestOptions sink_only;
  sink_only.sink_tokens = 16;  // sink without a window
  EXPECT_TRUE(rejected(sink_only));
  RequestOptions ok;
  ok.attention_window = 32;
  ok.sink_tokens = 16;
  ok.max_new_tokens = 4;
  const int id = engine.submit({1, 2, 3}, ok, nullptr, nullptr);
  engine.drain();
  EXPECT_EQ(engine.request(id).finish_reason, FinishReason::kLength);
  EXPECT_EQ(engine.stats().rejected, 3);
  EXPECT_EQ(model.kv_cache().pages_in_use(), 0);
}

TEST(EngineWindow, LongGenerationCompletesInSmallPoolWithFlatFootprint) {
  // The acceptance scenario at test scale: a generation whose full-attention
  // KV (608 tokens = 38 pages) could never fit the 10-page pool completes
  // under a 64-token window with a flat page footprint, while the same
  // request without a window dies mid-flight once its growth can no longer
  // be placed.
  // Disarms QSERVE_FAULT: fault recovery preempts, and this test pins a
  // preemption-free run with a flat page footprint.
  ConfigGuard guard(ConfigGuard::kNoFaults);
  const ModelWeights& weights = toy_weights(toy_config(1));
  const QuantSchemeConfig scheme = pool_scheme(10);
  EngineConfig cfg;
  cfg.scheduler.prefill_chunk = 16;  // slack 16 -> ring cap 7 pages/layer
  const std::vector<int> prompt(8, 3);

  {
    QuantizedModel model(weights, scheme);
    ServingEngine engine(&model, cfg);
    RequestOptions full;
    full.max_new_tokens = 600;
    const int id = engine.submit(prompt, full, nullptr, nullptr);
    engine.drain();
    EXPECT_EQ(engine.request(id).finish_reason, FinishReason::kError);
    EXPECT_LT(engine.request(id).generated.size(), 600u);
    EXPECT_EQ(model.kv_cache().pages_in_use(), 0);
  }

  QuantizedModel model(weights, scheme);
  ServingEngine engine(&model, cfg);
  RequestOptions opts;
  opts.max_new_tokens = 600;
  opts.attention_window = 64;
  opts.sink_tokens = 16;
  std::vector<int64_t> pages_at_token;
  const int id = engine.submit(
      prompt, opts,
      [&](const Request&, int) {
        pages_at_token.push_back(model.kv_cache().pages_in_use());
      },
      nullptr);
  const EngineStats stats = engine.drain();
  EXPECT_EQ(engine.request(id).finish_reason, FinishReason::kLength);
  EXPECT_EQ(engine.request(id).generated.size(), 600u);
  EXPECT_EQ(stats.preemptions, 0);
  EXPECT_GT(stats.kv_recycled_pages, 0);
  ASSERT_EQ(pages_at_token.size(), 600u);
  // Once the ring fills (well before token 200), the footprint never moves.
  for (size_t t = 200; t < pages_at_token.size(); ++t)
    ASSERT_EQ(pages_at_token[t], pages_at_token[199]) << t;
  EXPECT_LE(pages_at_token[199], 10);
  EXPECT_EQ(model.kv_cache().pages_in_use(), 0);
}

}  // namespace
}  // namespace qserve
