// Paged KV cache: quantization round trips, page accounting, sequence
// lifecycle, and the per-head dynamic-scale layout of §5.1.
#include "kvcache/paged_kv_cache.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/parallel.h"
#include "common/rng.h"
#include "quant/kv_quant.h"

namespace qserve {
namespace {

KvCacheConfig small_cfg(KvPrecision p, int max_pages = 64) {
  KvCacheConfig cfg;
  cfg.n_kv_heads = 2;
  cfg.head_dim = 8;
  cfg.page_size = 4;
  cfg.precision = p;
  cfg.max_pages = max_pages;
  return cfg;
}

std::vector<float> random_vec(Rng& rng, int n, float outlier = 0.0f) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng.normal();
  if (outlier != 0.0f) v[0] = outlier;
  return v;
}

TEST(KvQuant, Int8RoundTripError) {
  Rng rng(1);
  const auto x = random_vec(rng, 64);
  std::vector<uint8_t> codes(64);
  const auto p = kv_quantize(x.data(), 64, 8, codes.data());
  std::vector<float> out(64);
  kv_dequantize(codes.data(), 64, p, out.data());
  for (int i = 0; i < 64; ++i)
    EXPECT_NEAR(out[size_t(i)], x[size_t(i)], 0.51f * p.scale + 1e-3f);
}

TEST(KvQuant, Int4RoundTripCoarserThanInt8) {
  Rng rng(2);
  const auto x = random_vec(rng, 128);
  std::vector<uint8_t> c8(128), c4(128);
  const auto p8 = kv_quantize(x.data(), 128, 8, c8.data());
  const auto p4 = kv_quantize(x.data(), 128, 4, c4.data());
  std::vector<float> o8(128), o4(128);
  kv_dequantize(c8.data(), 128, p8, o8.data());
  kv_dequantize(c4.data(), 128, p4, o4.data());
  double e8 = 0, e4 = 0;
  for (int i = 0; i < 128; ++i) {
    e8 += std::pow(o8[size_t(i)] - x[size_t(i)], 2);
    e4 += std::pow(o4[size_t(i)] - x[size_t(i)], 2);
  }
  EXPECT_LT(e8, e4);
}

TEST(KvQuant, OutlierStretchesInt4Scale) {
  // A 10x outlier channel forces a ~10x coarser INT4 step for the whole
  // head — the §4.2 motivation for SmoothAttention.
  Rng rng(3);
  const auto clean = random_vec(rng, 64);
  auto dirty = clean;
  dirty[0] = 20.0f;
  std::vector<uint8_t> codes(64);
  const auto pc = kv_quantize(clean.data(), 64, 4, codes.data());
  const auto pd = kv_quantize(dirty.data(), 64, 4, codes.data());
  EXPECT_GT(pd.scale, 3.0f * pc.scale);
}

TEST(PagedKvCache, AppendGatherRoundTripFp16) {
  PagedKvCache cache(small_cfg(KvPrecision::kFp16));
  Rng rng(4);
  const int seq = cache.alloc_sequence();
  std::vector<std::vector<float>> ks, vs;
  for (int t = 0; t < 10; ++t) {
    ks.push_back(random_vec(rng, 16));
    vs.push_back(random_vec(rng, 16));
    cache.append_batch(seq, ks.back().data(), vs.back().data(), 1);
  }
  Tensor k, v;
  cache.gather(seq, k, v);
  ASSERT_EQ(k.rows(), 10);
  for (int t = 0; t < 10; ++t)
    for (int i = 0; i < 16; ++i) {
      EXPECT_NEAR(k.at2(t, i), ks[size_t(t)][size_t(i)], 2e-3f);
      EXPECT_NEAR(v.at2(t, i), vs[size_t(t)][size_t(i)], 2e-3f);
    }
}

class KvCacheRoundTrip : public ::testing::TestWithParam<KvPrecision> {};

TEST_P(KvCacheRoundTrip, ErrorBoundedByHeadScale) {
  PagedKvCache cache(small_cfg(GetParam()));
  Rng rng(5);
  const int seq = cache.alloc_sequence();
  const auto k0 = random_vec(rng, 16, 8.0f);  // outlier in head 0
  const auto v0 = random_vec(rng, 16);
  cache.append_batch(seq, k0.data(), v0.data(), 1);
  Tensor k, v;
  cache.gather(seq, k, v);
  const int bits = static_cast<int>(GetParam());
  const float max_step = bits >= 16 ? 0.01f : 17.0f / float((1 << bits) - 1);
  for (int i = 0; i < 16; ++i)
    EXPECT_NEAR(k.at2(0, i), k0[size_t(i)], max_step) << i;
}

INSTANTIATE_TEST_SUITE_P(Precisions, KvCacheRoundTrip,
                         ::testing::Values(KvPrecision::kFp16,
                                           KvPrecision::kInt8,
                                           KvPrecision::kInt4));

TEST(PagedKvCache, PerHeadScalesIsolateOutliers) {
  // An outlier in head 0 must not degrade head 1's INT4 round trip — the
  // reason QServe quantizes per head, not per tensor.
  PagedKvCache cache(small_cfg(KvPrecision::kInt4));
  Rng rng(6);
  const int seq = cache.alloc_sequence();
  std::vector<float> kvec = random_vec(rng, 16);
  kvec[0] = 50.0f;  // head 0 outlier
  const auto vvec = random_vec(rng, 16);
  cache.append_batch(seq, kvec.data(), vvec.data(), 1);
  Tensor k, v;
  cache.gather(seq, k, v);
  for (int i = 8; i < 16; ++i)  // head 1 channels
    EXPECT_NEAR(k.at2(0, i), kvec[size_t(i)], 0.3f);
}

TEST(PagedKvCache, PageAllocationGrowsByPageSize) {
  PagedKvCache cache(small_cfg(KvPrecision::kInt4));
  const int seq = cache.alloc_sequence();
  EXPECT_EQ(cache.pages_in_use(), 0);
  Rng rng(7);
  const auto k = random_vec(rng, 16);
  for (int t = 0; t < 9; ++t) cache.append_batch(seq, k.data(), k.data(), 1);
  // page_size=4: 9 tokens -> 3 pages.
  EXPECT_EQ(cache.pages_in_use(), 3);
  EXPECT_EQ(cache.seq_len(seq), 9);
}

TEST(PagedKvCache, FreeSequenceReleasesPages) {
  PagedKvCache cache(small_cfg(KvPrecision::kInt4, 8));
  Rng rng(8);
  const auto k = random_vec(rng, 16);
  const int a = cache.alloc_sequence();
  for (int t = 0; t < 8; ++t) cache.append_batch(a, k.data(), k.data(), 1);
  EXPECT_EQ(cache.free_pages(), 6);
  cache.free_sequence(a);
  EXPECT_EQ(cache.free_pages(), 8);
  EXPECT_FALSE(cache.is_live(a));
  // Freed pages are reusable by a new sequence.
  const int b = cache.alloc_sequence();
  for (int t = 0; t < 32; ++t) cache.append_batch(b, k.data(), k.data(), 1);
  EXPECT_EQ(cache.pages_in_use(), 8);
}

TEST(PagedKvCache, PoolExhaustionThrows) {
  PagedKvCache cache(small_cfg(KvPrecision::kInt4, 2));
  Rng rng(9);
  const auto k = random_vec(rng, 16);
  const int seq = cache.alloc_sequence();
  for (int t = 0; t < 8; ++t) cache.append_batch(seq, k.data(), k.data(), 1);
  EXPECT_THROW(cache.append_batch(seq, k.data(), k.data(), 1), CheckError);
}

TEST(PagedKvCache, CanGrowAccountsForPartialPages) {
  PagedKvCache cache(small_cfg(KvPrecision::kInt4, 2));
  Rng rng(10);
  const auto k = random_vec(rng, 16);
  const int seq = cache.alloc_sequence();
  // 1 token, 1 page (3 slots spare).
  cache.append_batch(seq, k.data(), k.data(), 1);
  EXPECT_TRUE(cache.can_grow(seq, 7));    // 3 spare + 4 in the last free page
  EXPECT_FALSE(cache.can_grow(seq, 8));
}

TEST(PagedKvCache, MultipleSequencesIsolated) {
  PagedKvCache cache(small_cfg(KvPrecision::kInt8));
  Rng rng(11);
  const int a = cache.alloc_sequence();
  const int b = cache.alloc_sequence();
  const auto ka = random_vec(rng, 16, 3.0f);
  const auto kb = random_vec(rng, 16, -5.0f);
  cache.append_batch(a, ka.data(), ka.data(), 1);
  cache.append_batch(b, kb.data(), kb.data(), 1);
  Tensor k, v;
  cache.gather(a, k, v);
  EXPECT_NEAR(k.at2(0, 0), 3.0f, 0.1f);
  cache.gather(b, k, v);
  EXPECT_NEAR(k.at2(0, 0), -5.0f, 0.1f);
}

TEST(PagedKvCache, PageBytesLayout) {
  // INT4 page: 2 (K,V) * 4 tokens * 16 span * 0.5B + dynamic params
  // 2 * 4 * 2 heads * 4B = 64 + 64.
  const auto cfg = small_cfg(KvPrecision::kInt4);
  EXPECT_EQ(kv_page_bytes(cfg), 64 + 64);
  // INT8: one code per byte plus the same params.
  EXPECT_EQ(kv_page_bytes(small_cfg(KvPrecision::kInt8)), 2 * 4 * 16 + 64);
}

TEST(PagedKvCache, ModeledPageBytesMatchMeasuredStorage) {
  // Regression: INT4 codes used to be stored one per byte while
  // kv_page_bytes modeled nibble packing, understating real usage 2x. The
  // payload vectors (nibble-packed codes, binary16 payload and params) must
  // now occupy exactly the modeled bytes.
  for (KvPrecision p :
       {KvPrecision::kFp16, KvPrecision::kInt8, KvPrecision::kInt4}) {
    PagedKvCache cache(small_cfg(p));
    EXPECT_EQ(kv_page_bytes(cache.config()), cache.measured_page_bytes())
        << "precision " << static_cast<int>(p);
  }
}

TEST(PagedKvCache, Int4RequiresEvenHeadDim) {
  KvCacheConfig cfg = small_cfg(KvPrecision::kInt4);
  cfg.head_dim = 7;
  EXPECT_THROW(PagedKvCache{cfg}, CheckError);
  cfg.precision = KvPrecision::kInt8;  // one code per byte: odd dim is fine
  PagedKvCache ok(cfg);
  EXPECT_EQ(kv_page_bytes(cfg), ok.measured_page_bytes());
}

TEST(PagedKvCache, StaleSeqViewDetectedAfterFree) {
  // Regression for preemption: SeqView holds raw page pointers, and
  // free_sequence() can recycle those pages mid-flight. The per-page
  // generation counter turns a silent stale read into a QS_DCHECK failure.
  PagedKvCache cache(small_cfg(KvPrecision::kInt4));
  Rng rng(13);
  const int a = cache.alloc_sequence();
  const auto k = random_vec(rng, 16);
  cache.append_batch(a, k.data(), k.data(), 1);
  const PagedKvCache::SeqView view = cache.view(a);
  view.k_run(0, 0);  // live view reads fine
  cache.free_sequence(a);
#ifndef NDEBUG
  EXPECT_THROW(view.k_run(0, 0), CheckError);
  // The page may since have been recycled into another sequence; the stale
  // view must still trip even though the page is live again.
  const int b = cache.alloc_sequence();
  cache.append_batch(b, k.data(), k.data(), 1);
  EXPECT_THROW(view.v_run(0, 0), CheckError);
#else
  GTEST_SKIP() << "generation checks are QS_DCHECK (compiled out in NDEBUG)";
#endif
}

TEST(PagedKvCache, AppendBatchMatchesSingleAppendsBitwise) {
  // Batch-split invariance of the one write path: one-token append_batch
  // calls must store byte-identical pages to a 5 + 1 + 7 split of the same
  // tokens, across every precision and across page boundaries
  // (page_size=4, 13 tokens => 4 pages, last partially filled).
  for (const KvPrecision p :
       {KvPrecision::kFp16, KvPrecision::kInt8, KvPrecision::kInt4}) {
    PagedKvCache one(small_cfg(p)), batch(small_cfg(p));
    const int sa = one.alloc_sequence();
    const int sb = batch.alloc_sequence();
    Rng rng(7);
    const int span = 16;  // n_kv_heads * head_dim
    const int n = 13;
    std::vector<float> k, v;
    for (int t = 0; t < n; ++t) {
      const auto kt = random_vec(rng, span, /*outlier=*/t % 3 ? 0.f : 8.f);
      const auto vt = random_vec(rng, span);
      k.insert(k.end(), kt.begin(), kt.end());
      v.insert(v.end(), vt.begin(), vt.end());
      one.append_batch(sa, kt.data(), vt.data(), 1);
    }
    // Mixed batch sizes: 5 + 1 + 7 tokens.
    batch.append_batch(sb, k.data(), v.data(), 5);
    batch.append_batch(sb, k.data() + 5 * span, v.data() + 5 * span, 1);
    batch.append_batch(sb, k.data() + 6 * span, v.data() + 6 * span, 7);
    EXPECT_EQ(one.seq_len(sa), n);
    EXPECT_EQ(batch.seq_len(sb), n);
    EXPECT_EQ(one.pages_in_use(), batch.pages_in_use());
    Tensor k1, v1, k2, v2;
    one.gather(sa, k1, v1);
    batch.gather(sb, k2, v2);
    EXPECT_EQ(max_abs_diff(k1, k2), 0.0f);
    EXPECT_EQ(max_abs_diff(v1, v2), 0.0f);
  }
}

TEST(PagedKvCache, AppendBatchTooLargeThrowsWithoutMutating) {
  // A batch the pool cannot hold must fail before any sequence state
  // mutates: seq_len may never claim tokens whose page slots were not
  // written (gather would dequantize unwritten bytes as valid K/V).
  PagedKvCache cache(small_cfg(KvPrecision::kInt8, /*max_pages=*/2));
  const int seq = cache.alloc_sequence();
  Rng rng(3);
  const int span = 16;
  const auto k = random_vec(rng, 3 * span), v = random_vec(rng, 3 * span);
  cache.append_batch(seq, k.data(), v.data(), 3);
  // Pool holds 2 pages x 4 tokens = 8; 3 used, 6 more cannot fit.
  std::vector<float> big_k(6 * span, 1.0f), big_v(6 * span, 1.0f);
  EXPECT_THROW(cache.append_batch(seq, big_k.data(), big_v.data(), 6),
               CheckError);
  EXPECT_EQ(cache.seq_len(seq), 3);
  Tensor kd, vd;
  cache.gather(seq, kd, vd);
  EXPECT_EQ(kd.rows(), 3);
}

TEST(PagedKvCache, AppendBatchConcurrentDistinctSequences) {
  // The batched step executor scatters whole chunks into distinct sequences
  // concurrently; contents must match a serial run exactly and the pool
  // accounting must stay conserved.
  const int kSeqs = 6, kTokens = 23, span = 16;
  Rng rng(11);
  std::vector<std::vector<float>> ks(kSeqs), vs(kSeqs);
  for (int s = 0; s < kSeqs; ++s)
    for (int t = 0; t < kTokens; ++t) {
      const auto kt = random_vec(rng, span);
      const auto vt = random_vec(rng, span);
      ks[size_t(s)].insert(ks[size_t(s)].end(), kt.begin(), kt.end());
      vs[size_t(s)].insert(vs[size_t(s)].end(), vt.begin(), vt.end());
    }

  PagedKvCache serial(small_cfg(KvPrecision::kInt4, 256));
  PagedKvCache parallel_cache(small_cfg(KvPrecision::kInt4, 256));
  std::vector<int> serial_ids(kSeqs), parallel_ids(kSeqs);
  for (int s = 0; s < kSeqs; ++s) {
    serial_ids[size_t(s)] = serial.alloc_sequence();
    parallel_ids[size_t(s)] = parallel_cache.alloc_sequence();
    serial.append_batch(serial_ids[size_t(s)], ks[size_t(s)].data(),
                        vs[size_t(s)].data(), kTokens);
  }
  parallel_for(0, kSeqs, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s)
      parallel_cache.append_batch(parallel_ids[size_t(s)],
                                  ks[size_t(s)].data(), vs[size_t(s)].data(),
                                  kTokens);
  });

  EXPECT_EQ(serial.pages_in_use(), parallel_cache.pages_in_use());
  for (int s = 0; s < kSeqs; ++s) {
    Tensor k1, v1, k2, v2;
    serial.gather(serial_ids[size_t(s)], k1, v1);
    parallel_cache.gather(parallel_ids[size_t(s)], k2, v2);
    EXPECT_EQ(max_abs_diff(k1, k2), 0.0f);
    EXPECT_EQ(max_abs_diff(v1, v2), 0.0f);
  }
}

// --- truncate_sequence (speculative-decoding rollback) -----------------------

TEST(PagedKvCache, TruncateFreesPagesAndComposesWithAppend) {
  // page_size = 4: 13 tokens span 4 pages. Truncating to 9 keeps 3 pages,
  // to 8 keeps 2 (exact boundary), and re-appending after a rollback stores
  // byte-identical state to a cache that never held the rejected tail.
  PagedKvCache cache(small_cfg(KvPrecision::kInt4));
  PagedKvCache replay(small_cfg(KvPrecision::kInt4));
  const int seq = cache.alloc_sequence();
  const int rep = replay.alloc_sequence();
  Rng rng(21);
  const int span = 16;  // n_kv_heads * head_dim
  std::vector<std::vector<float>> ks, vs;
  for (int t = 0; t < 13; ++t) {
    ks.push_back(random_vec(rng, span, t % 4 ? 0.f : 6.f));
    vs.push_back(random_vec(rng, span));
    cache.append_batch(seq, ks.back().data(), vs.back().data(), 1);
  }
  EXPECT_EQ(cache.seq_len(seq), 13);
  EXPECT_EQ(cache.pages_in_use(), 4);

  cache.truncate_sequence(seq, 9);
  EXPECT_EQ(cache.seq_len(seq), 9);
  EXPECT_EQ(cache.pages_in_use(), 3);
  cache.truncate_sequence(seq, 8);
  EXPECT_EQ(cache.seq_len(seq), 8);
  EXPECT_EQ(cache.pages_in_use(), 2);
  cache.truncate_sequence(seq, 8);  // no-op at the same length
  EXPECT_EQ(cache.pages_in_use(), 2);

  // Roll forward again with DIFFERENT tokens (the accepted continuation).
  std::vector<float> k2, v2;
  for (int t = 0; t < 5; ++t) {
    const auto kt = random_vec(rng, span);
    const auto vt = random_vec(rng, span);
    k2.insert(k2.end(), kt.begin(), kt.end());
    v2.insert(v2.end(), vt.begin(), vt.end());
  }
  cache.append_batch(seq, k2.data(), v2.data(), 5);
  EXPECT_EQ(cache.seq_len(seq), 13);

  for (int t = 0; t < 8; ++t)
    replay.append_batch(rep, ks[size_t(t)].data(), vs[size_t(t)].data(), 1);
  replay.append_batch(rep, k2.data(), v2.data(), 5);
  Tensor ka, va, kb, vb;
  cache.gather(seq, ka, va);
  replay.gather(rep, kb, vb);
  EXPECT_EQ(max_abs_diff(ka, kb), 0.0f);
  EXPECT_EQ(max_abs_diff(va, vb), 0.0f);

  cache.free_sequence(seq);
  EXPECT_EQ(cache.pages_in_use(), 0);
  EXPECT_THROW(cache.truncate_sequence(seq, 0), CheckError);  // not live
}

TEST(PagedKvCache, TruncateValidatesLength) {
  PagedKvCache cache(small_cfg(KvPrecision::kInt8));
  const int seq = cache.alloc_sequence();
  Rng rng(3);
  const auto k = random_vec(rng, 16);
  cache.append_batch(seq, k.data(), k.data(), 1);
  EXPECT_THROW(cache.truncate_sequence(seq, 2), CheckError);   // > length
  EXPECT_THROW(cache.truncate_sequence(seq, -1), CheckError);  // negative
  cache.truncate_sequence(seq, 0);  // to empty is legal
  EXPECT_EQ(cache.seq_len(seq), 0);
  EXPECT_EQ(cache.pages_in_use(), 0);
}

TEST(PagedKvCache, TruncateFuzzInterleavedInvariants) {
  // Randomized interleaving of append_batch / truncate_sequence /
  // free+realloc across 4 sequences, with a float mirror of every live
  // sequence. After each op: seq_len, used_pages (sum of per-sequence page
  // needs), and byte accounting must hold; periodically a live sequence's
  // gather must equal a fresh cache replaying the mirror — rollback plus
  // re-append must be indistinguishable from never having appended the tail.
  for (const KvPrecision p : {KvPrecision::kInt4, KvPrecision::kInt8}) {
    PagedKvCache cache(small_cfg(p, /*max_pages=*/256));
    Rng rng(static_cast<uint64_t>(77 + static_cast<int>(p)));
    const int span = 16;
    const int64_t page = cache.config().page_size;
    struct Mirror {
      int id = -1;
      std::vector<float> k, v;  // span floats per token
      int64_t len() const { return static_cast<int64_t>(k.size()) / 16; }
    };
    std::vector<Mirror> seqs(4);
    for (auto& s : seqs) s.id = cache.alloc_sequence();

    const auto check_accounting = [&]() {
      int64_t pages = 0;
      for (const auto& s : seqs) {
        ASSERT_EQ(cache.seq_len(s.id), s.len());
        pages += (s.len() + page - 1) / page;
      }
      ASSERT_EQ(cache.pages_in_use(), pages);
      ASSERT_EQ(cache.bytes_in_use(),
                pages * kv_page_bytes(cache.config()));
    };

    for (int op = 0; op < 240; ++op) {
      Mirror& s = seqs[static_cast<size_t>(rng.uniform_int(0, 3))];
      const int action = rng.uniform_int(0, 9);
      if (action <= 4) {  // append_batch of 1..6 tokens
        const int n = rng.uniform_int(1, 6);
        std::vector<float> k, v;
        for (int t = 0; t < n; ++t) {
          const auto kt = random_vec(rng, span, t % 3 ? 0.f : 7.f);
          const auto vt = random_vec(rng, span);
          k.insert(k.end(), kt.begin(), kt.end());
          v.insert(v.end(), vt.begin(), vt.end());
        }
        cache.append_batch(s.id, k.data(), v.data(), n);
        s.k.insert(s.k.end(), k.begin(), k.end());
        s.v.insert(s.v.end(), v.begin(), v.end());
      } else if (action <= 8) {  // truncate to a random shorter length
        const int64_t new_len =
            rng.uniform_int(0, static_cast<int>(s.len()));
        cache.truncate_sequence(s.id, new_len);
        s.k.resize(static_cast<size_t>(new_len * span));
        s.v.resize(static_cast<size_t>(new_len * span));
      } else {  // free and immediately re-alloc (page recycling churn)
        cache.free_sequence(s.id);
        s.id = cache.alloc_sequence();
        s.k.clear();
        s.v.clear();
      }
      check_accounting();
      cache.audit();

      if (op % 16 == 15) {
        const Mirror& probe = seqs[static_cast<size_t>(rng.uniform_int(0, 3))];
        if (probe.len() == 0) continue;
        PagedKvCache fresh(small_cfg(p, /*max_pages=*/256));
        const int f = fresh.alloc_sequence();
        fresh.append_batch(f, probe.k.data(), probe.v.data(), probe.len());
        Tensor ka, va, kb, vb;
        cache.gather(probe.id, ka, va);
        fresh.gather(f, kb, vb);
        ASSERT_EQ(max_abs_diff(ka, kb), 0.0f);
        ASSERT_EQ(max_abs_diff(va, vb), 0.0f);
      }
    }
  }
}

TEST(PagedKvCache, StaleSeqViewDetectedAfterTruncate) {
  // Rollback recycles the freed tail pages and rewrites the truncated slots
  // of the kept boundary page, so a SeqView taken before truncate_sequence
  // must trip the generation QS_DCHECK exactly like preemption's
  // free_sequence — on the freed pages AND on the partially-truncated one.
  PagedKvCache cache(small_cfg(KvPrecision::kInt4));
  Rng rng(31);
  const int seq = cache.alloc_sequence();
  std::vector<float> kv;
  for (int t = 0; t < 7; ++t) {  // 2 pages: 4 + 3 tokens
    const auto x = random_vec(rng, 16);
    kv.insert(kv.end(), x.begin(), x.end());
  }
  cache.append_batch(seq, kv.data(), kv.data(), 7);
  // Run r of a plain view is page r: run 0 = tokens 0-3, run 1 = 4-6.
  const PagedKvCache::SeqView before = cache.view(seq);
  before.k_run(1, 0);  // live view reads fine

  cache.truncate_sequence(seq, 2);  // frees page 1, cuts into page 0
#ifndef NDEBUG
  EXPECT_THROW(before.k_run(1, 0), CheckError);  // freed page
  EXPECT_THROW(before.k_run(0, 0), CheckError);  // cut page
  // A view taken AFTER the rollback snapshots the bumped generation and
  // reads the surviving prefix fine.
  const PagedKvCache::SeqView after = cache.view(seq);
  after.k_run(0, 0);
  EXPECT_EQ(after.length(), 2);

  // Boundary-exact truncation leaves kept pages untouched: the old view
  // still reads them, only the freed tail trips.
  PagedKvCache c2(small_cfg(KvPrecision::kInt8));
  const int s2 = c2.alloc_sequence();
  c2.append_batch(s2, kv.data(), kv.data(), 7);
  const PagedKvCache::SeqView v2 = c2.view(s2);
  c2.truncate_sequence(s2, 4);  // exact page boundary
  v2.k_run(0, 0);                                // kept page: ok
  EXPECT_THROW(v2.k_run(1, 0), CheckError);      // freed page
#else
  GTEST_SKIP() << "generation checks are QS_DCHECK (compiled out in NDEBUG)";
#endif
}

TEST(PagedKvCache, ForkAliasesPagesWithoutCopying) {
  // 10 tokens on page_size 4 = pages [4, 4, 2]. Forking the first 8 tokens
  // aliases the two full pages: zero allocation, zero copies, and the fork's
  // bytes ARE the source's bytes.
  PagedKvCache cache(small_cfg(KvPrecision::kInt4));
  Rng rng(41);
  const int src = cache.alloc_sequence();
  std::vector<float> k, v;
  for (int t = 0; t < 10; ++t) {
    const auto kt = random_vec(rng, 16, t % 4 ? 0.f : 5.f);
    const auto vt = random_vec(rng, 16);
    k.insert(k.end(), kt.begin(), kt.end());
    v.insert(v.end(), vt.begin(), vt.end());
  }
  cache.append_batch(src, k.data(), v.data(), 10);
  ASSERT_EQ(cache.pages_in_use(), 3);

  const int fork = cache.fork_sequence(src, 8);
  EXPECT_EQ(cache.seq_len(fork), 8);
  EXPECT_EQ(cache.pages_in_use(), 3);  // nothing allocated
  EXPECT_EQ(cache.cow_page_copies(), 0);
  EXPECT_EQ(cache.shared_pages(), 2);
  EXPECT_EQ(cache.seq_shared_pages(src), 2);
  EXPECT_EQ(cache.seq_shared_pages(fork), 2);

  Tensor ks, vs, kf, vf;
  cache.gather(src, ks, vs);
  cache.gather(fork, kf, vf);
  for (int64_t t = 0; t < 8; ++t)
    for (int64_t c = 0; c < 16; ++c) {
      ASSERT_EQ(kf.at2(t, c), ks.at2(t, c));
      ASSERT_EQ(vf.at2(t, c), vs.at2(t, c));
    }

  // Freeing the source keeps the shared pages alive for the fork; the
  // source's private tail page is the only one released.
  cache.free_sequence(src);
  EXPECT_EQ(cache.pages_in_use(), 2);
  EXPECT_EQ(cache.shared_pages(), 0);  // refcounts dropped to 1
  Tensor kf2, vf2;
  cache.gather(fork, kf2, vf2);
  EXPECT_EQ(max_abs_diff(kf, kf2), 0.0f);
  cache.free_sequence(fork);
  EXPECT_EQ(cache.pages_in_use(), 0);
}

TEST(PagedKvCache, ForkZeroAndFullLength) {
  PagedKvCache cache(small_cfg(KvPrecision::kInt8));
  Rng rng(42);
  const int src = cache.alloc_sequence();
  const auto x = random_vec(rng, 16);
  cache.append_batch(src, x.data(), x.data(), 1);
  const int empty = cache.fork_sequence(src, 0);
  EXPECT_EQ(cache.seq_len(empty), 0);
  EXPECT_EQ(cache.shared_pages(), 0);
  const int full = cache.fork_sequence(src, 1);  // partial boundary page
  EXPECT_EQ(cache.seq_len(full), 1);
  EXPECT_EQ(cache.shared_pages(), 1);
  EXPECT_THROW(cache.fork_sequence(src, 2), CheckError);   // > length
  EXPECT_THROW(cache.fork_sequence(src, -1), CheckError);  // negative
  cache.free_sequence(src);
  cache.free_sequence(empty);
  cache.free_sequence(full);
  EXPECT_EQ(cache.pages_in_use(), 0);
}

TEST(PagedKvCache, CowWriterGetsPrivateCopySourceUnchanged) {
  // Fork including the partial boundary page, then append to the FORK: the
  // shared tail page is copied privately first, the source's bytes and its
  // pre-existing SeqView stay untouched, and the fork's content equals a
  // replay that never shared anything.
  PagedKvCache cache(small_cfg(KvPrecision::kInt4));
  PagedKvCache replay(small_cfg(KvPrecision::kInt4));
  Rng rng(43);
  const int src = cache.alloc_sequence();
  std::vector<float> k, v;
  for (int t = 0; t < 6; ++t) {  // pages [4, 2]
    const auto kt = random_vec(rng, 16, t % 3 ? 0.f : 4.f);
    const auto vt = random_vec(rng, 16);
    k.insert(k.end(), kt.begin(), kt.end());
    v.insert(v.end(), vt.begin(), vt.end());
  }
  cache.append_batch(src, k.data(), v.data(), 6);
  const int fork = cache.fork_sequence(src, 6);
  EXPECT_EQ(cache.shared_pages(), 2);
  const PagedKvCache::SeqView src_view = cache.view(src);

  Tensor ks0, vs0;
  cache.gather(src, ks0, vs0);
  const auto kx = random_vec(rng, 16);
  const auto vx = random_vec(rng, 16);
  // Writes slot 2 of the tail page.
  cache.append_batch(fork, kx.data(), vx.data(), 1);
  EXPECT_EQ(cache.cow_page_copies(), 1);
  EXPECT_EQ(cache.pages_in_use(), 3);   // the private copy
  EXPECT_EQ(cache.shared_pages(), 1);   // only the full page stays shared
  EXPECT_EQ(cache.seq_shared_pages(src), 1);
  EXPECT_EQ(cache.seq_shared_pages(fork), 1);

  // Source is bitwise untouched — including through the pre-CoW view (a CoW
  // copy must NOT bump the shared page's generation).
  Tensor ks1, vs1;
  cache.gather(src, ks1, vs1);
  EXPECT_EQ(max_abs_diff(ks0, ks1), 0.0f);
  EXPECT_EQ(max_abs_diff(vs0, vs1), 0.0f);
  src_view.k_run(1, 1);  // the shared tail page (tokens 4-5)

  // Fork content == replay without sharing.
  const int rep = replay.alloc_sequence();
  replay.append_batch(rep, k.data(), v.data(), 6);
  replay.append_batch(rep, kx.data(), vx.data(), 1);
  Tensor ka, va, kb, vb;
  cache.gather(fork, ka, va);
  replay.gather(rep, kb, vb);
  EXPECT_EQ(max_abs_diff(ka, kb), 0.0f);
  EXPECT_EQ(max_abs_diff(va, vb), 0.0f);

  // The fork's tail is now private: further appends copy nothing more.
  cache.append_batch(fork, kx.data(), vx.data(), 1);
  EXPECT_EQ(cache.cow_page_copies(), 1);
  cache.free_sequence(src);
  cache.free_sequence(fork);
  EXPECT_EQ(cache.pages_in_use(), 0);
  EXPECT_EQ(cache.shared_pages(), 0);
}

TEST(PagedKvCache, SourceAppendAfterForkCopiesOnWrite) {
  // Sharing is symmetric: after a boundary-inclusive fork, the SOURCE is a
  // writer into a shared page too and must CoW before appending.
  PagedKvCache cache(small_cfg(KvPrecision::kInt8));
  Rng rng(44);
  const int src = cache.alloc_sequence();
  std::vector<float> k;
  for (int t = 0; t < 5; ++t) {  // pages [4, 1]
    const auto kt = random_vec(rng, 16);
    k.insert(k.end(), kt.begin(), kt.end());
  }
  cache.append_batch(src, k.data(), k.data(), 5);
  const int fork = cache.fork_sequence(src, 5);
  Tensor kf0, vf0;
  cache.gather(fork, kf0, vf0);

  const auto kx = random_vec(rng, 16);
  cache.append_batch(src, kx.data(), kx.data(), 1);
  EXPECT_EQ(cache.cow_page_copies(), 1);
  EXPECT_EQ(cache.seq_len(src), 6);
  EXPECT_EQ(cache.seq_len(fork), 5);
  Tensor kf1, vf1;
  cache.gather(fork, kf1, vf1);
  EXPECT_EQ(max_abs_diff(kf0, kf1), 0.0f);
  EXPECT_EQ(max_abs_diff(vf0, vf1), 0.0f);
  cache.free_sequence(src);
  cache.free_sequence(fork);
  EXPECT_EQ(cache.pages_in_use(), 0);
}

TEST(PagedKvCache, TruncateNeverTouchesSharedBoundaryPage) {
  // The speculative-rollback hazard: truncating a sequence whose boundary
  // page is shared must leave the page's bytes and generation alone — the
  // other owner keeps reading through a pre-rollback view. The truncated
  // writer CoWs on its next append instead.
  PagedKvCache cache(small_cfg(KvPrecision::kInt4));
  Rng rng(45);
  const int src = cache.alloc_sequence();
  std::vector<float> k;
  for (int t = 0; t < 8; ++t) {  // pages [4, 4]
    const auto kt = random_vec(rng, 16);
    k.insert(k.end(), kt.begin(), kt.end());
  }
  cache.append_batch(src, k.data(), k.data(), 8);
  const int fork = cache.fork_sequence(src, 8);
  const PagedKvCache::SeqView fork_view = cache.view(fork);

  cache.truncate_sequence(src, 6);  // cuts INTO shared page 1
  EXPECT_EQ(cache.seq_len(src), 6);
  EXPECT_EQ(cache.seq_len(fork), 8);
  EXPECT_EQ(cache.pages_in_use(), 2);   // nothing freed (both refs live)
  EXPECT_EQ(cache.shared_pages(), 2);   // still shared
  fork_view.k_run(1, 0);                // page 1: no generation bump

  // Appending after the shared-boundary truncate copies the page first;
  // the fork still sees the ORIGINAL tokens 6 and 7.
  Tensor kf0, vf0;
  cache.gather(fork, kf0, vf0);
  const auto kx = random_vec(rng, 16);
  cache.append_batch(src, kx.data(), kx.data(), 1);
  EXPECT_EQ(cache.cow_page_copies(), 1);
  Tensor kf1, vf1;
  cache.gather(fork, kf1, vf1);
  EXPECT_EQ(max_abs_diff(kf0, kf1), 0.0f);
  fork_view.k_run(1, 0);

  // Truncating the tail page AWAY entirely just drops a reference: the fork
  // keeps the page; the source's table shrinks.
  cache.truncate_sequence(fork, 3);  // fork's page 1 ref dropped (src CoW'd)
  EXPECT_EQ(cache.seq_len(fork), 3);
  cache.free_sequence(src);
  cache.free_sequence(fork);
  EXPECT_EQ(cache.pages_in_use(), 0);
  EXPECT_EQ(cache.shared_pages(), 0);
}

TEST(PagedKvCache, ForkCowFuzzInterleavedInvariants) {
  // Randomized interleaving of fork / append_batch / truncate / free across
  // up to 6 sequences, against TWO mirrors: a float mirror per sequence
  // (bitwise replay-equivalence) and a shadow page model implementing the
  // documented refcount semantics (exact pages_in_use / shared_pages /
  // seq_shared_pages / cow_page_copies accounting at every step).
  for (const KvPrecision p : {KvPrecision::kInt4, KvPrecision::kInt8}) {
    PagedKvCache cache(small_cfg(p, /*max_pages=*/512));
    Rng rng(static_cast<uint64_t>(55 + static_cast<int>(p)));
    const int span = 16;
    const int64_t page = cache.config().page_size;

    struct Shadow {
      int id = -1;                 // cache sequence handle
      std::vector<float> k, v;     // span floats per token
      std::vector<int> pages;      // shadow page ids
      int64_t len() const { return static_cast<int64_t>(k.size()) / 16; }
    };
    std::vector<Shadow> seqs;
    std::vector<int> ref;  // shadow page id -> refcount (0 = free)
    int64_t shadow_cows = 0;
    const auto new_page = [&ref]() {
      ref.push_back(1);
      return static_cast<int>(ref.size()) - 1;
    };
    // First write into a sequence's existing tail page: CoW if shared.
    const auto shadow_tail_write = [&](Shadow& s) {
      if (s.len() % page == 0 || s.pages.empty()) return;
      int& rc = ref[static_cast<size_t>(s.pages.back())];
      if (rc > 1) {
        --rc;
        s.pages.back() = new_page();
        ++shadow_cows;
      }
    };
    const auto check = [&]() {
      int64_t in_use = 0, shared = 0;
      for (const int rc : ref) {
        in_use += rc > 0;
        shared += rc > 1;
      }
      ASSERT_EQ(cache.pages_in_use(), in_use);
      ASSERT_EQ(cache.shared_pages(), shared);
      ASSERT_EQ(cache.cow_page_copies(), shadow_cows);
      for (const auto& s : seqs) {
        ASSERT_EQ(cache.seq_len(s.id), s.len());
        int64_t mine = 0;
        for (const int pid : s.pages)
          mine += ref[static_cast<size_t>(pid)] > 1;
        ASSERT_EQ(cache.seq_shared_pages(s.id), mine);
      }
    };

    seqs.push_back({});
    seqs.back().id = cache.alloc_sequence();
    for (int op = 0; op < 400; ++op) {
      Shadow& s = seqs[static_cast<size_t>(
          rng.uniform_int(0, static_cast<int>(seqs.size()) - 1))];
      const int action = rng.uniform_int(0, 9);
      if (action <= 3) {  // append_batch of 1..6 tokens
        const int n = rng.uniform_int(1, 6);
        std::vector<float> k, v;
        for (int t = 0; t < n; ++t) {
          const auto kt = random_vec(rng, span, t % 3 ? 0.f : 6.f);
          const auto vt = random_vec(rng, span);
          k.insert(k.end(), kt.begin(), kt.end());
          v.insert(v.end(), vt.begin(), vt.end());
        }
        cache.append_batch(s.id, k.data(), v.data(), n);
        shadow_tail_write(s);
        const int64_t target = s.len() + n;
        while (static_cast<int64_t>(s.pages.size()) * page < target)
          s.pages.push_back(new_page());
        s.k.insert(s.k.end(), k.begin(), k.end());
        s.v.insert(s.v.end(), v.begin(), v.end());
      } else if (action <= 5 && seqs.size() < 6) {  // fork a random prefix
        const int64_t upto = rng.uniform_int(0, static_cast<int>(s.len()));
        Shadow f;
        f.id = cache.fork_sequence(s.id, upto);
        const int64_t n_pages = (upto + page - 1) / page;
        for (int64_t pi = 0; pi < n_pages; ++pi) {
          f.pages.push_back(s.pages[static_cast<size_t>(pi)]);
          ++ref[static_cast<size_t>(f.pages.back())];
        }
        f.k.assign(s.k.begin(), s.k.begin() + upto * span);
        f.v.assign(s.v.begin(), s.v.begin() + upto * span);
        seqs.push_back(std::move(f));  // note: `s` may dangle; re-looped next
      } else if (action <= 8) {  // truncate to a random shorter length
        const int64_t new_len = rng.uniform_int(0, static_cast<int>(s.len()));
        cache.truncate_sequence(s.id, new_len);
        const int64_t keep = (new_len + page - 1) / page;
        while (static_cast<int64_t>(s.pages.size()) > keep) {
          --ref[static_cast<size_t>(s.pages.back())];
          s.pages.pop_back();
        }
        s.k.resize(static_cast<size_t>(new_len * span));
        s.v.resize(static_cast<size_t>(new_len * span));
      } else if (seqs.size() > 1) {  // free a sequence
        cache.free_sequence(s.id);
        for (const int pid : s.pages) --ref[static_cast<size_t>(pid)];
        if (&s != &seqs.back()) s = std::move(seqs.back());
        seqs.pop_back();
      }
      check();
      cache.audit();

      if (op % 16 == 15) {
        const Shadow& probe = seqs[static_cast<size_t>(
            rng.uniform_int(0, static_cast<int>(seqs.size()) - 1))];
        if (probe.len() == 0) continue;
        PagedKvCache fresh(small_cfg(p, /*max_pages=*/512));
        const int f = fresh.alloc_sequence();
        fresh.append_batch(f, probe.k.data(), probe.v.data(), probe.len());
        Tensor ka, va, kb, vb;
        cache.gather(probe.id, ka, va);
        fresh.gather(f, kb, vb);
        ASSERT_EQ(max_abs_diff(ka, kb), 0.0f);
        ASSERT_EQ(max_abs_diff(va, vb), 0.0f);
      }
    }
    for (const auto& s : seqs) cache.free_sequence(s.id);
    ASSERT_EQ(cache.pages_in_use(), 0);
    ASSERT_EQ(cache.shared_pages(), 0);
  }
}

TEST(PagedKvCache, WindowedFuzzGatherMatchesFullAttentionShadow) {
  // Seeded interleaving over a mix of windowed and plain sequences:
  // append_batch of 1..slack tokens, truncation to at most slack below the
  // sequence's high-water mark, a fork of a windowed sequence's sinks (or a
  // plain sequence's prefix), and free + realloc. A plain shadow cache
  // replays every op. After each op, audit() passes and every sequence's
  // gather returns exactly the shadow's rows [0, sink) and [tail0, len),
  // with the next query's window [len - window, len) resident.
  for (const KvPrecision p :
       {KvPrecision::kInt4, KvPrecision::kInt8, KvPrecision::kFp16}) {
    PagedKvCache cache(small_cfg(p, /*max_pages=*/512));
    PagedKvCache shadow(small_cfg(p, /*max_pages=*/1024));
    Rng rng(static_cast<uint64_t>(91 + static_cast<int>(p)));
    const int span = 16;
    const int64_t page = cache.config().page_size;
    struct Slot {
      int id = -1, ref = -1;  // cache / shadow handles
      int64_t sink = 0, window = 0, slack = 0;  // window 0 = plain
      int64_t hwm = 0;                          // longest length reached
    };
    const auto open = [&](Slot& s) {
      s = Slot{};
      s.id = cache.alloc_sequence();
      s.ref = shadow.alloc_sequence();
      if (rng.uniform_int(0, 2) > 0) {  // two in three are windowed
        s.sink = page * rng.uniform_int(0, 2);
        s.window = page * rng.uniform_int(1, 3);
        s.slack = rng.uniform_int(1, 6);
        cache.set_window(s.id, s.sink, s.window, s.slack);
      }
    };
    const auto check = [&](const Slot& s) {
      const int64_t len = cache.seq_len(s.id);
      ASSERT_EQ(len, shadow.seq_len(s.ref));
      Tensor kw, vw, kf, vf;
      const int64_t tail0 = cache.gather(s.id, kw, vw);
      ASSERT_EQ(shadow.gather(s.ref, kf, vf), 0);
      const int64_t sink_eff = std::min(s.sink, len);
      ASSERT_GE(tail0, sink_eff);
      ASSERT_LE(tail0, s.window == 0 ? 0 : std::max(sink_eff, len - s.window));
      ASSERT_EQ(kw.rows(), sink_eff + len - tail0);
      for (int64_t r = 0; r < kw.rows(); ++r) {
        const int64_t t = r < sink_eff ? r : tail0 + (r - sink_eff);
        for (int i = 0; i < span; ++i) {
          ASSERT_EQ(kw.at2(r, i), kf.at2(t, i)) << "row " << r;
          ASSERT_EQ(vw.at2(r, i), vf.at2(t, i)) << "row " << r;
        }
      }
    };

    std::vector<Slot> slots(3);
    for (auto& s : slots) open(s);
    for (int op = 0; op < 1000; ++op) {
      Slot& s = slots[static_cast<size_t>(rng.uniform_int(0, 2))];
      const int64_t len = cache.seq_len(s.id);
      // Appends dominate so the rings wrap many times between resets.
      const int action = rng.uniform_int(0, 19);
      if (action <= 14) {  // append_batch of 1..slack tokens
        const int n =
            rng.uniform_int(1, s.window > 0 ? static_cast<int>(s.slack) : 6);
        std::vector<float> k, v;
        for (int t = 0; t < n; ++t) {
          const auto kt = random_vec(rng, span, t % 3 ? 0.f : 5.f);
          const auto vt = random_vec(rng, span);
          k.insert(k.end(), kt.begin(), kt.end());
          v.insert(v.end(), vt.begin(), vt.end());
        }
        cache.append_batch(s.id, k.data(), v.data(), n);
        shadow.append_batch(s.ref, k.data(), v.data(), n);
        s.hwm = std::max(s.hwm, len + n);
      } else if (action <= 17) {  // rollback within the slack
        const int64_t lo =
            s.window > 0 ? std::max<int64_t>(0, s.hwm - s.slack) : 0;
        if (len > lo) {
          const int64_t new_len =
              rng.uniform_int(static_cast<int>(lo), static_cast<int>(len));
          cache.truncate_sequence(s.id, new_len);
          shadow.truncate_sequence(s.ref, new_len);
        }
      } else if (action == 18) {  // fork the sinks into another slot
        Slot& dst = slots[static_cast<size_t>(rng.uniform_int(0, 2))];
        if (&dst != &s) {
          const int64_t upto = rng.uniform_int(
              0, static_cast<int>(s.window > 0 ? std::min(s.sink, len) : len));
          cache.free_sequence(dst.id);
          shadow.free_sequence(dst.ref);
          dst = Slot{};
          dst.id = cache.fork_sequence(s.id, upto);
          dst.ref = shadow.fork_sequence(s.ref, upto);
          dst.hwm = upto;
        }
      } else {  // free and realloc
        cache.free_sequence(s.id);
        shadow.free_sequence(s.ref);
        open(s);
      }
      cache.audit();
      shadow.audit();
      for (const Slot& t : slots) ASSERT_NO_FATAL_FAILURE(check(t));
    }
    for (const Slot& s : slots) {
      cache.free_sequence(s.id);
      shadow.free_sequence(s.ref);
    }
    cache.audit();
    EXPECT_EQ(cache.pages_in_use(), 0);
    EXPECT_EQ(cache.shared_pages(), 0);
    EXPECT_GT(cache.recycled_pages(), 0);  // the rings did wrap
  }
}

}  // namespace
}  // namespace qserve
