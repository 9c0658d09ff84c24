// Cross-ISA equivalence of the attention microkernel subsystem: the scalar,
// AVX2 and AVX-512 paths must produce bitwise-identical attention outputs
// for every KV storage form
// (INT4/INT8 dynamic, FP16), decode rows, verify spans and prefill chunks
// over plain and recycled windowed sequences, odd sequence lengths that
// cross page boundaries, GQA head ratios, head_dims off the 16-lane grid,
// and FP16-accumulation on/off — all equal to the gather +
// attention_prefill oracle; and every ISA's `dequant` equal to the KV
// quantizer's reference decode. Also pins the batched executor to
// per-sequence calls under preemption churn and to solo runs in a mixed model
// step, the one-dispatch-per-layer counter contract, and the QSERVE_ISA
// override plumbing.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/half.h"
#include "harness.h"
#include "kernels/attention.h"
#include "kernels/cpu/attention_kernel.h"
#include "kvcache/fused_attention.h"
#include "quant/kv_quant.h"

namespace qserve {
namespace {

using cpu::Isa;

void expect_bitwise_equal(const std::vector<float>& a,
                          const std::vector<float>& b, const char* tag) {
  ASSERT_EQ(a.size(), b.size()) << tag;
  for (size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << tag << " element " << i;
}

// Sliding-window policy of a fixture sequence (window 0 = full attention).
struct WindowSpec {
  int64_t sink = 0, window = 0, slack = 0;
};

// A populated quantized KV cache + an n-row query span over its last n
// positions, parameterized over every axis the kernels dispatch on. page_size
// 8 keeps several page runs in play; token counts that are not multiples of
// 8 make the last run a partial page.
struct CacheFixture {
  KvCacheConfig ccfg;
  AttentionConfig acfg;
  PagedKvCache cache;
  int seq;
  int64_t n_rows;
  WindowSpec win;
  std::vector<float> q;

  CacheFixture(KvPrecision p, int n_heads, int n_kv_heads, int head_dim,
               int tokens, bool fp16_accum, uint64_t seed, int64_t rows = 1,
               WindowSpec w = {})
      : ccfg{n_kv_heads, head_dim, 8, p, 4096},
        acfg{n_heads, n_kv_heads, head_dim, fp16_accum},
        cache(ccfg),
        seq(cache.alloc_sequence()),
        n_rows(rows),
        win(w) {
    if (w.window > 0) cache.set_window(seq, w.sink, w.window, w.slack);
    Rng rng(seed);
    const size_t span = static_cast<size_t>(n_kv_heads) * head_dim;
    std::vector<float> k(span), v(span);
    for (int t = 0; t < tokens; ++t) {
      for (auto& x : k) x = rng.normal();
      for (auto& x : v) x = rng.normal();
      k[0] = 9.0f;  // persistent outlier channel, like real Keys
      cache.append_batch(seq, k.data(), v.data(), 1);
    }
    q.resize(static_cast<size_t>(rows * n_heads * head_dim));
    for (auto& x : q) x = rng.normal();
  }

  std::vector<float> fused() const {
    std::vector<float> out(q.size());
    batched_fused_decode_attention(
        cache, {{seq, q.data(), out.data(), n_rows}}, acfg);
    return out;
  }

  // The float oracle: gather the resident rows, attend with the window.
  std::vector<float> gather_reference() const {
    Tensor k, v;
    const int64_t tail0 = cache.gather(seq, k, v);
    Tensor qt({n_rows, int64_t(acfg.n_heads) * acfg.head_dim});
    std::copy(q.begin(), q.end(), qt.data());
    const Tensor out = attention_prefill(qt, k, v, acfg, cache.seq_len(seq),
                                         win.sink, win.window, tail0);
    return std::vector<float>(out.data(), out.data() + out.numel());
  }

  // An independent double-precision reading of the visibility rule over the
  // same gathered rows: the row at position p attends
  // [0, min(p+1, sink)) ∪ [max(sink, p+1-window), p+1).
  std::vector<float> naive_reference() const {
    Tensor k, v;
    const int64_t tail0 = cache.gather(seq, k, v);
    const int64_t len = cache.seq_len(seq);
    const int64_t sink = win.sink, w = win.window > 0 ? win.window : len;
    const int d_head = acfg.head_dim, group = acfg.n_heads / acfg.n_kv_heads;
    std::vector<float> out(q.size());
    for (int64_t r = 0; r < n_rows; ++r) {
      const int64_t p = len - n_rows + r;
      std::vector<int64_t> rows;  // gathered rows of the visible positions
      for (int64_t t = 0; t < std::min(p + 1, sink); ++t) rows.push_back(t);
      for (int64_t t = std::max(sink, p + 1 - w); t <= p; ++t)
        rows.push_back(std::min(sink, len) + t - tail0);
      for (int h = 0; h < acfg.n_heads; ++h) {
        const float* qh = q.data() + (r * acfg.n_heads + h) * d_head;
        const int64_t c0 = int64_t(h / group) * d_head;
        std::vector<double> sc;
        double mx = -1e300, sum = 0.0;
        for (const int64_t row : rows) {
          double dot = 0.0;
          for (int d = 0; d < d_head; ++d) dot += qh[d] * k.at2(row, c0 + d);
          sc.push_back(dot / std::sqrt(double(d_head)));
          mx = std::max(mx, sc.back());
        }
        for (double& x : sc) sum += (x = std::exp(x - mx));
        for (int d = 0; d < d_head; ++d) {
          double o = 0.0;
          for (size_t i = 0; i < rows.size(); ++i)
            o += sc[i] / sum * v.at2(rows[i], c0 + d);
          out[static_cast<size_t>((r * acfg.n_heads + h) * d_head + d)] =
              static_cast<float>(o);
        }
      }
    }
    return out;
  }
};

struct KvForm {
  KvPrecision precision;
  const char* name;
};

const KvForm kKvForms[] = {
    {KvPrecision::kInt4, "int4"},
    {KvPrecision::kInt8, "int8"},
    {KvPrecision::kFp16, "fp16"},
};

TEST(AttentionIsaEquivalence, FusedBitwiseAcrossIsasAllKvForms) {
  // 45 tokens at page size 8: 5 full page runs + a 5-token tail run, read by
  // a decode row, a 3-row verify span and a 37-row prefill chunk. The
  // windowed sequence (8 sinks, window 16) has recycled its ring, and every
  // multi-row span's earliest row reaches below the latest row's window.
  const WindowSpec windowed{8, 16, 40};
  uint64_t seed = 50;
  for (const KvForm& f : kKvForms) {
    for (const auto& [n_heads, n_kv_heads] : {std::pair{4, 4},
                                              std::pair{8, 2},
                                              std::pair{6, 3}}) {
      for (const bool fp16 : {false, true}) {
        for (const int64_t rows : {1, 3, 37}) {
          for (const bool is_windowed : {false, true}) {
            CacheFixture s(f.precision, n_heads, n_kv_heads, 32,
                           is_windowed ? 150 : 45, fp16, seed++, rows,
                           is_windowed ? windowed : WindowSpec{});
            ASSERT_EQ(is_windowed, s.cache.recycled_pages() > 0);
            std::vector<float> ref;
            {
              ConfigGuard guard(Isa::kScalar);
              ref = s.fused();
            }
            // The shared executor against an independent float reading of
            // the causal / window clip (FP16 accumulation bounds the gap).
            const std::vector<float> naive = s.naive_reference();
            for (size_t i = 0; i < ref.size(); ++i)
              ASSERT_NEAR(naive[i], ref[i], 2e-2) << f.name << " rows="
                                                  << rows << " i=" << i;
            for (Isa isa : supported_isas()) {
              ConfigGuard guard(isa);
              SCOPED_TRACE(std::string(f.name) + " heads=" +
                           std::to_string(n_heads) + "/" +
                           std::to_string(n_kv_heads) + " fp16=" +
                           std::to_string(fp16) + " rows=" +
                           std::to_string(rows) + " windowed=" +
                           std::to_string(is_windowed) + " isa=" +
                           cpu::isa_name(isa));
              expect_bitwise_equal(ref, s.fused(), "fused");
              // Cross-path: every ISA's fused result must also equal the
              // gather-then-attend oracle (the gather decodes with the
              // scalar `dequant`; the attention runs on `isa`).
              expect_bitwise_equal(ref, s.gather_reference(), "gather");
            }
          }
        }
      }
    }
  }
}

TEST(AttentionIsaEquivalence, HeadDimsOffTheLaneGrid) {
  // head_dim 24 exercises the 8-element scalar tail after one 16-lane block;
  // head_dim 8 never enters the vector loop at all. Both must match scalar
  // bitwise (the tails walk the same virtual lanes).
  uint64_t seed = 150;
  for (const int head_dim : {8, 24, 48}) {
    for (const KvForm& f : kKvForms) {
      CacheFixture s(f.precision, 4, 2, head_dim, 21, true, seed++);
      std::vector<float> ref;
      {
        ConfigGuard guard(Isa::kScalar);
        ref = s.fused();
      }
      for (Isa isa : supported_isas()) {
        ConfigGuard guard(isa);
        SCOPED_TRACE(std::string(f.name) + " head_dim=" +
                     std::to_string(head_dim) + " isa=" + cpu::isa_name(isa));
        expect_bitwise_equal(ref, s.fused(), "odd_head_dim");
        expect_bitwise_equal(ref, s.gather_reference(), "odd_head_dim_gather");
      }
    }
  }
}

TEST(AttentionIsaEquivalence, PrefillGatherPathAcrossIsas) {
  // The float-KV (gather) path runs the same kernels via kF32 runs: a causal
  // prefill over random K/V must be bitwise identical on every ISA.
  Rng rng(77);
  const AttentionConfig cfg{6, 3, 24, true};
  const int64_t n = 9, s = 13;
  Tensor q({n, int64_t(cfg.n_heads) * cfg.head_dim});
  Tensor k({s, int64_t(cfg.n_kv_heads) * cfg.head_dim});
  Tensor v({s, int64_t(cfg.n_kv_heads) * cfg.head_dim});
  for (int64_t i = 0; i < q.numel(); ++i) q[i] = rng.normal();
  for (int64_t i = 0; i < k.numel(); ++i) k[i] = rng.normal();
  for (int64_t i = 0; i < v.numel(); ++i) v[i] = rng.normal();

  Tensor ref;
  {
    ConfigGuard guard(Isa::kScalar);
    ref = attention_prefill(q, k, v, cfg);
  }
  for (Isa isa : supported_isas()) {
    ConfigGuard guard(isa);
    const Tensor got = attention_prefill(q, k, v, cfg);
    SCOPED_TRACE(cpu::isa_name(isa));
    ASSERT_TRUE(ref.same_shape(got));
    for (int64_t i = 0; i < ref.numel(); ++i) ASSERT_EQ(ref[i], got[i]) << i;
  }
}

TEST(AttentionIsaEquivalence, BatchedMatchesPerSequenceUnderChurn) {
  // Several sequences of different odd lengths, with free/realloc churn so
  // later sequences land on recycled pages out of allocation order — the
  // preemption pattern — each read by a span of its own length (decode
  // rows, a verify-sized span, a whole-sequence chunk). The batched executor
  // must reproduce one-item (per-sequence) calls bitwise on every ISA.
  for (const KvForm& f : kKvForms) {
    KvCacheConfig ccfg{2, 32, 8, f.precision, 4096};
    const AttentionConfig acfg{4, 2, 32, true};
    PagedKvCache cache(ccfg);
    Rng rng(901);
    const size_t span = static_cast<size_t>(ccfg.n_kv_heads) * ccfg.head_dim;
    std::vector<float> kb(span), vb(span);
    auto fill = [&](int seq, int tokens) {
      for (int t = 0; t < tokens; ++t) {
        for (auto& x : kb) x = rng.normal();
        for (auto& x : vb) x = rng.normal();
        cache.append_batch(seq, kb.data(), vb.data(), 1);
      }
    };
    // Churn: a and b claim pages, a is preempted, c/d/e reuse its pages.
    const int a = cache.alloc_sequence();
    fill(a, 20);
    const int b = cache.alloc_sequence();
    fill(b, 37);
    cache.free_sequence(a);
    const int c = cache.alloc_sequence();
    fill(c, 11);
    const int d = cache.alloc_sequence();
    fill(d, 1);
    const int e = cache.alloc_sequence();
    fill(e, 9);
    const std::vector<int> live = {b, c, d, e};
    const std::vector<int64_t> rows = {3, 1, 1, 9};

    const size_t hd = static_cast<size_t>(acfg.n_heads) * acfg.head_dim;
    std::vector<std::vector<float>> qs;
    std::vector<size_t> off = {0};  // each item's first output element
    for (size_t i = 0; i < live.size(); ++i) {
      qs.emplace_back(hd * static_cast<size_t>(rows[i]));
      for (auto& x : qs.back()) x = rng.normal();
      off.push_back(off.back() + qs.back().size());
    }

    std::vector<float> ref;  // scalar per-sequence results, concatenated
    {
      ConfigGuard guard(Isa::kScalar);
      ref.resize(off.back());
      for (size_t i = 0; i < live.size(); ++i)
        batched_fused_decode_attention(
            cache, {{live[i], qs[i].data(), ref.data() + off[i], rows[i]}},
            acfg);
    }
    for (Isa isa : supported_isas()) {
      ConfigGuard guard(isa);
      SCOPED_TRACE(std::string(f.name) + " isa=" + cpu::isa_name(isa));
      std::vector<float> got(off.back());
      std::vector<DecodeAttentionItem> items;
      for (size_t i = 0; i < live.size(); ++i)
        items.push_back({live[i], qs[i].data(), got.data() + off[i], rows[i]});
      batched_fused_decode_attention(cache, items, acfg);
      expect_bitwise_equal(ref, got, "batched_vs_per_seq");
    }
  }
}

// --- model / engine level ----------------------------------------------------

const ModelWeights& weights() { return toy_weights(toy_config(2)); }

TEST(BatchedAttentionExecutor, OneDispatchPerLayerPerStep) {
  // Every forward dispatches the attention executor once per layer and
  // shard, whatever its spans are — prefill chunks, verify spans and decode
  // rows alike, never a per-sequence fan-out — at 1 and 2 shards.
  for (const int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    QuantizedModel m(weights(), QuantSchemeConfig::qserve_w4a8kv4_g128(),
                     TpConfig{shards});
    const int64_t n_dispatch = int64_t(m.config().n_layers) * shards;

    // A prefill-only step per sequence.
    std::vector<int> seqs;
    for (int i = 0; i < 3; ++i) {
      const int s = m.begin_sequence();
      m.prefill(s, {3, 1, 4, 1, 5});
      seqs.push_back(s);
      EXPECT_EQ((i + 1) * n_dispatch, m.batched_attention_calls());
    }
    EXPECT_GT(m.attention_seconds(), 0.0);

    // One step with 3 decode rows.
    BatchedStep step;
    for (const int s : seqs)
      step.chunks.push_back({s, {7}, static_cast<int>(m.seq_pos(s)), 1});
    m.forward_step(step);
    EXPECT_EQ(4 * n_dispatch, m.batched_attention_calls());

    // A mixed step: a prefill chunk, a 3-row verify span and two decode rows.
    const int fresh = m.begin_sequence();
    BatchedStep mixed;
    mixed.chunks.push_back({fresh, {2, 7, 1, 8, 2, 8}, 0, 1});
    mixed.chunks.push_back(
        {seqs[0], {9, 9, 9}, static_cast<int>(m.seq_pos(seqs[0])), 3});
    for (size_t i = 1; i < seqs.size(); ++i)
      mixed.chunks.push_back(
          {seqs[i], {6}, static_cast<int>(m.seq_pos(seqs[i])), 1});
    m.forward_step(mixed);
    EXPECT_EQ(5 * n_dispatch, m.batched_attention_calls());
  }
}

TEST(BatchedAttentionExecutor, MixedStepMatchesSoloRunsAcrossShards) {
  // One forward_step carrying a windowed prefill chunk whose ring has
  // recycled (its earliest rows reach below its last row's window), a 3-row
  // verify span and two decode rows must reproduce every chunk run alone,
  // logit row for logit row, at 1 and 2 tensor-parallel shards.
  Rng rng(404);
  const auto tokens = [&](int n) {
    std::vector<int> t(static_cast<size_t>(n));
    for (auto& x : t) x = rng.uniform_int(0, 511);
    return t;
  };
  const std::vector<int> w_prompt = tokens(100), v_prompt = tokens(20),
                         d1_prompt = tokens(9), d2_prompt = tokens(30);
  const std::vector<int> w_chunk = tokens(24), v_span = tokens(3);
  for (const int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    // Both models get the same four sequences; a windowed one (16 sinks,
    // window 32, slack 32 — ring of 80 tokens) prefilled in 25-token chunks.
    const auto setup = [&](QuantizedModel& m) {
      std::vector<int> s(4);
      for (auto& x : s) x = m.begin_sequence();
      m.set_sequence_window(s[0], 16, 32, 32);
      for (size_t i = 0; i < w_prompt.size(); i += 25)
        m.prefill(s[0], std::vector<int>(w_prompt.begin() + long(i),
                                         w_prompt.begin() + long(i) + 25));
      m.prefill(s[1], v_prompt);
      m.prefill(s[2], d1_prompt);
      m.prefill(s[3], d2_prompt);
      BatchedStep step;
      step.chunks = {{s[0], w_chunk, 100, 24},
                     {s[1], v_span, 20, 3},
                     {s[2], {11}, 9, 1},
                     {s[3], {12}, 30, 1}};
      return step;
    };
    QuantizedModel mixed(weights(),
                         QuantSchemeConfig::qserve_w4a8kv4_g128(),
                         TpConfig{shards});
    QuantizedModel solo(weights(), QuantSchemeConfig::qserve_w4a8kv4_g128(),
                        TpConfig{shards});
    ASSERT_EQ(shards, mixed.tp_shards());
    const Tensor got = mixed.forward_step(setup(mixed));
    ASSERT_GT(mixed.kv_cache().recycled_pages(), 0);
    std::vector<float> ref;
    for (const StepSeqChunk& c : setup(solo).chunks) {
      BatchedStep one;
      one.chunks = {c};
      const Tensor l = solo.forward_step(one);
      ref.insert(ref.end(), l.data(), l.data() + l.numel());
    }
    expect_bitwise_equal(
        ref, std::vector<float>(got.data(), got.data() + got.numel()),
        "mixed_vs_solo");
  }
}

TEST(EngineStats, AttentionSecondsSplitOutOfStepTime) {
  Rng rng(31);
  EngineRun run;
  run.target = &weights();
  run.cfg.scheduler.max_batch = 3;
  run.cfg.scheduler.prefill_chunk = 8;
  const EngineOutcome r =
      run_engine(run, random_workload(rng, 5, {1, 20}, {1, 8}));
  EXPECT_GT(r.stats.attention_seconds, 0.0);
  EXPECT_GT(r.stats.attention_share, 0.0);
  EXPECT_LE(r.stats.attention_share, 1.0);
  EXPECT_LE(r.stats.attention_seconds, r.stats.wall_seconds);
}

// --- validation --------------------------------------------------------------

TEST(AttentionConfigValidation, RejectsBadShapesLoudly) {
  EXPECT_NO_THROW((AttentionConfig{8, 2, 64, false}).validate());
  EXPECT_THROW((AttentionConfig{0, 1, 64, false}).validate(), CheckError);
  EXPECT_THROW((AttentionConfig{8, 0, 64, false}).validate(), CheckError);
  EXPECT_THROW((AttentionConfig{8, 8, 0, false}).validate(), CheckError);
  EXPECT_THROW((AttentionConfig{8, 3, 64, false}).validate(), CheckError);
  // Odd head_dim is fine for float/INT8 KV but not for nibble-packed INT4.
  EXPECT_NO_THROW((AttentionConfig{4, 4, 33, false}).validate(false));
  EXPECT_THROW((AttentionConfig{4, 4, 33, false}).validate(true), CheckError);
}

TEST(AttentionIsaEquivalence, FloatKernelsMatchScalarAtEveryTileLength) {
  // The AVX-512 qk_dot walks 16 tokens at once where head_dim has no lane
  // tail, and falls back to one token at a time for the rest: every tile
  // length from 0 to 40 (every remainder of the 16-token groups) at
  // head_dims on and off the 16-lane grid must match scalar bit for bit, and
  // so must every ISA's sv_accum.
  // The probabilities include zeros and subnormals, as softmax produces.
  Rng rng(11);
  const cpu::AttentionKernels& scalar =
      cpu::attention_kernel_for(Isa::kScalar);
  for (const int head_dim : {8, 16, 24, 32, 64, 80, 128}) {
    for (int64_t n = 0; n <= 40; ++n) {
      std::vector<float> q(static_cast<size_t>(head_dim)),
          kv(static_cast<size_t>(n * head_dim)), p(static_cast<size_t>(n)),
          out0(static_cast<size_t>(head_dim));
      for (auto& x : q) x = rng.normal();
      for (auto& x : kv) x = rng.normal();
      for (size_t t = 0; t < p.size(); ++t)
        p[t] = t % 7 == 3 ? 0.0f : t % 5 == 1 ? 1e-40f : rng.uniform();
      for (auto& x : out0) x = rng.normal();
      std::vector<float> ref_dots(p.size()), ref_out = out0;
      scalar.qk_dot(q.data(), kv.data(), n, head_dim, ref_dots.data());
      scalar.sv_accum(p.data(), kv.data(), n, head_dim, ref_out.data());
      for (Isa isa : supported_isas()) {
        const cpu::AttentionKernels& ker = cpu::attention_kernel_for(isa);
        std::vector<float> dots(p.size()), out = out0;
        ker.qk_dot(q.data(), kv.data(), n, head_dim, dots.data());
        ker.sv_accum(p.data(), kv.data(), n, head_dim, out.data());
        SCOPED_TRACE(std::string(cpu::isa_name(isa)) + " head_dim=" +
                     std::to_string(head_dim) + " n=" + std::to_string(n));
        expect_bitwise_equal(ref_dots, dots, "qk_dot");
        expect_bitwise_equal(ref_out, out, "sv_accum");
      }
    }
  }
}

TEST(AttentionIsaEquivalence, DequantMatchesKvQuantReference) {
  // `dequant` is the cache's one decoder, so pin it to the quantizer's own
  // reference: kv_dequantize on the unpacked codes with the stored FP16
  // scale/zero, the binary16 -> float conversion, or the identity — bit for
  // bit, for every ISA, storage form, tile offset and length within a page,
  // and head_dim on and off the 16-lane grid. float(code) * scale is exact
  // (8-bit code times 11-bit significand), so FP contraction in this TU
  // cannot move the expected bits. The run is head 1 of a 3-head page, so
  // token and param strides differ from the head vector's own size.
  constexpr int kPage = 8, kHeads = 3, kHead = 1;
  const auto bits_of = [](float x) { return detail::bit_cast<uint32_t>(x); };
  Rng rng(23);
  const std::pair<cpu::KvRunKind, const char*> kinds[] = {
      {cpu::KvRunKind::kInt4Dyn, "int4"},
      {cpu::KvRunKind::kInt8Dyn, "int8"},
      {cpu::KvRunKind::kFp16, "fp16"},
      {cpu::KvRunKind::kF32, "f32"}};
  for (const auto& [kind, kind_name] : kinds) {
    for (const int head_dim : {8, 30, 64, 128}) {
      const int64_t span = int64_t(kHeads) * head_dim;
      std::vector<uint8_t> codes;
      std::vector<uint16_t> halves(static_cast<size_t>(kPage * span));
      std::vector<uint16_t> params(static_cast<size_t>(kPage * 2 * kHeads));
      std::vector<float> f32(static_cast<size_t>(kPage * span));
      std::vector<float> expect(static_cast<size_t>(kPage * head_dim));
      cpu::KvHeadRun run;
      run.kind = kind;
      run.n_tokens = kPage;
      if (kind == cpu::KvRunKind::kInt4Dyn ||
          kind == cpu::KvRunKind::kInt8Dyn) {
        const int bits = kind == cpu::KvRunKind::kInt4Dyn ? 4 : 8;
        const int64_t stride = span * bits / 8;  // bytes per token
        const int64_t head_off = int64_t(kHead) * head_dim * bits / 8;
        codes.assign(static_cast<size_t>(kPage * stride), 0);
        run.codes = codes.data() + head_off;
        run.stride = stride;
        run.params = params.data() + 2 * kHead;
        run.param_stride = 2 * kHeads;
        std::vector<uint8_t> unpacked(static_cast<size_t>(head_dim));
        for (int t = 0; t < kPage; ++t) {
          for (auto& c : unpacked)
            c = static_cast<uint8_t>(rng.uniform_int(0, (1 << bits) - 1));
          uint8_t* dst = codes.data() + head_off + t * stride;
          if (bits == 4)
            kv_pack_nibbles(unpacked.data(), head_dim, dst);
          else
            std::copy(unpacked.begin(), unpacked.end(), dst);
          // Scales from FP16 subnormals up to 16; zeros of either sign.
          const uint16_t sb = detail::float_to_half_bits(
              std::ldexp(rng.uniform(1.0f, 2.0f), rng.uniform_int(-24, 4)));
          const uint16_t zb = detail::float_to_half_bits(
              rng.normal() * std::ldexp(1.0f, rng.uniform_int(-20, 6)));
          params[static_cast<size_t>(t * run.param_stride + 2 * kHead)] = sb;
          params[static_cast<size_t>(t * run.param_stride + 2 * kHead + 1)] =
              zb;
          const KvQuantParams p{detail::half_bits_to_float(sb),
                                detail::half_bits_to_float(zb)};
          kv_dequantize(unpacked.data(), head_dim, p,
                        expect.data() + t * head_dim);
        }
      } else {
        run.stride = span;  // elements
        for (int t = 0; t < kPage; ++t) {
          for (int d = 0; d < head_dim; ++d) {
            const size_t at =
                static_cast<size_t>(t * span + kHead * head_dim + d);
            float& e = expect[static_cast<size_t>(t * head_dim + d)];
            if (kind == cpu::KvRunKind::kFp16) {
              // Any binary16 pattern but a signalling NaN (the write path
              // stores only quiet ones): zeros, subnormals, infinities.
              uint16_t h = static_cast<uint16_t>(rng.uniform_int(0, 0xFFFF));
              if ((h & 0x7C00) == 0x7C00 && (h & 0x3FF) != 0) h |= 0x200;
              halves[at] = h;
              e = detail::half_bits_to_float(h);
            } else {
              f32[at] = e = rng.normal();
            }
          }
        }
        if (kind == cpu::KvRunKind::kFp16)
          run.half_bits = halves.data() + kHead * head_dim;
        else
          run.f32 = f32.data() + kHead * head_dim;
      }
      for (Isa isa : supported_isas()) {
        const cpu::AttentionKernels& ker = cpu::attention_kernel_for(isa);
        for (int64_t t0 = 0; t0 <= kPage; ++t0) {
          for (int64_t n = 0; t0 + n <= kPage; ++n) {
            SCOPED_TRACE(std::string(cpu::isa_name(isa)) + " " + kind_name +
                         " head_dim=" + std::to_string(head_dim) + " t0=" +
                         std::to_string(t0) + " n=" + std::to_string(n));
            // One sentinel past the tile: dequant writes n rows, no more.
            std::vector<float> tile(static_cast<size_t>(n * head_dim + 1),
                                    -7.0f);
            ker.dequant(run, t0, n, head_dim, tile.data());
            for (int64_t i = 0; i < n * head_dim; ++i)
              ASSERT_EQ(bits_of(expect[static_cast<size_t>(t0 * head_dim + i)]),
                        bits_of(tile[static_cast<size_t>(i)]))
                  << "element " << i;
            ASSERT_EQ(-7.0f, tile.back());
          }
        }
      }
    }
  }
}

// --- dispatch plumbing -------------------------------------------------------

TEST(AttentionIsaDispatch, KernelTableIsConsistent) {
  for (Isa isa : supported_isas()) {
    const cpu::AttentionKernels& ker = cpu::attention_kernel_for(isa);
    EXPECT_EQ(isa, ker.isa) << cpu::isa_name(isa);
    EXPECT_NE(nullptr, ker.dequant);
    EXPECT_NE(nullptr, ker.qk_dot);
    EXPECT_NE(nullptr, ker.sv_accum);
  }
  // Unsupported ISAs resolve to a usable kernel rather than nullptr.
  const cpu::AttentionKernels& fallback =
      cpu::attention_kernel_for(Isa::kAvx512);
  EXPECT_NE(nullptr, fallback.qk_dot);
}

TEST(AttentionIsaDispatch, EnvOverridePinsTheFusedKernel) {
  CacheFixture s(KvPrecision::kInt4, 4, 2, 32, 19, true, 999);
  std::vector<float> scalar_ref;
  {
    ConfigGuard guard(Isa::kScalar);
    scalar_ref = s.fused();
  }
  cpu::clear_isa_override();
  ASSERT_EQ(0, setenv("QSERVE_ISA", "scalar", 1));
  EXPECT_EQ(Isa::kScalar, cpu::active_isa());
  expect_bitwise_equal(scalar_ref, s.fused(), "env_scalar");
  // Requests above the host's capability clamp down instead of faulting.
  ASSERT_EQ(0, setenv("QSERVE_ISA", "avx512", 1));
  expect_bitwise_equal(scalar_ref, s.fused(), "env_clamped");
  ASSERT_EQ(0, unsetenv("QSERVE_ISA"));
}

}  // namespace
}  // namespace qserve
