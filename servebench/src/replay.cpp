#include "replay.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "common/half.h"
#include "common/parallel.h"
#include "kernels/attention.h"
#include "kernels/cpu/isa.h"
#include "kernels/cpu/microkernel.h"
#include "kernels/gemm.h"
#include "kernels/ops.h"
#include "kvcache/fused_attention.h"
#include "quant/quantize.h"
#include "stats.h"
#include "workload.h"

namespace servebench {

using qserve::Tensor;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int64_t kChunk = 128;  // the engine's default prefill chunk

// Median wall seconds of fn() over >= 5 calls and >= 0.1 s, after one
// untimed call; reset() runs after every call, outside the timing.
template <typename Fn, typename Reset>
double median_seconds(Trace* trace, const std::string& name, const char* cat,
                      const Fn& fn, const Reset& reset) {
  fn();
  reset();
  std::vector<double> t;
  double total = 0;
  while (t.size() < 5 || (total < 0.1 && t.size() < 400)) {
    double dt = 0;
    {
      Span sp(trace, name.c_str(), cat);
      const auto t0 = Clock::now();
      fn();
      dt = std::chrono::duration<double>(Clock::now() - t0).count();
    }
    reset();
    t.push_back(dt);
    total += dt;
  }
  return percentile(t, 50);
}

template <typename Fn>
double median_seconds(Trace* trace, const std::string& name, const char* cat,
                      const Fn& fn) {
  return median_seconds(trace, name, cat, fn, [] {});
}

// measure() on 1 thread over measure() on 2 threads; restores `pinned`.
template <typename Measure>
double thread_scaling(int pinned, const Measure& measure) {
  qserve::set_num_threads(1);
  const double one = measure();
  qserve::set_num_threads(2);
  const double two = measure();
  qserve::set_num_threads(pinned);
  return one / two;
}

Tensor random_tensor(int64_t rows, int64_t cols, SplitMix& rng) {
  Tensor t({rows, cols});
  for (int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  return t;
}

struct Projection {
  std::string name;
  qserve::PackedGemmB w;
};

// The seven W4A8 projections of layer 0, packed exactly as the model packs
// them (progressive per-group quantization, active-ISA panel width).
std::vector<Projection> pack_projections(const qserve::LayerWeights& lw,
                                         const qserve::QuantSchemeConfig& q) {
  const int nr = qserve::cpu::microkernel_for(qserve::cpu::active_isa()).nr;
  const auto pack = [&](const Tensor& w) {
    qserve::ProgressiveOptions popt;
    popt.group = static_cast<int>(std::min<int64_t>(q.group, w.cols()));
    popt.level1_range = q.level1_range;
    return qserve::pack_gemm_b(qserve::quantize_progressive(w, popt), nr);
  };
  return {{"q_proj", pack(lw.wq)},    {"k_proj", pack(lw.wk)},
          {"v_proj", pack(lw.wv)},    {"o_proj", pack(lw.wo)},
          {"gate_proj", pack(lw.w_gate)}, {"up_proj", pack(lw.w_up)},
          {"down_proj", pack(lw.w_down)}};
}

struct GemmSetTime {
  double proj_seconds = 0;  // the seven projections
  double head_seconds = 0;  // the FP16 LM head
  double ops = 0;
  double bytes = 0;
};

// One call per projection plus the LM head at m rows. Bytes: packed INT8
// weight panels and epilogue vectors, INT8 activation codes with their
// per-row scale and sum, FP32 outputs; the LM head reads FP32 weights.
GemmSetTime time_gemm_set(const std::vector<Projection>& projs,
                          const Tensor& lm_head, int64_t m, SplitMix& rng,
                          Trace* trace) {
  GemmSetTime g;
  for (const Projection& p : projs) {
    const qserve::QuantizedActs x =
        qserve::quantize_acts_per_token(random_tensor(m, p.w.k, rng));
    g.proj_seconds += median_seconds(trace, "gemm_blocked " + p.name,
                                     "kernels",
                                     [&] { qserve::gemm_blocked(x, p.w); });
    g.ops += 2.0 * double(m) * double(p.w.n) * double(p.w.k);
    g.bytes += double(p.w.data.size()) +
               4.0 * double(p.w.row_sum.size() + p.w.scale.size() +
                            p.w.zp_term.size()) +
               double(m) * double(p.w.k) + 8.0 * double(m) +
               4.0 * double(m) * double(p.w.n);
  }
  const Tensor x = random_tensor(m, lm_head.cols(), rng);
  g.head_seconds = median_seconds(trace, "gemm_f32_ref lm_head", "kernels",
                                  [&] { qserve::gemm_f32_ref(x, lm_head); });
  g.ops += 2.0 * double(m) * double(lm_head.rows()) * double(lm_head.cols());
  g.bytes += 4.0 * double(lm_head.numel() + x.numel() + m * lm_head.rows());
  return g;
}

}  // namespace

ReplayResult run_replays(qserve::QuantizedModel& model,
                         const qserve::ModelWeights& weights,
                         const ReplayShapes& shapes, Trace* trace) {
  const qserve::ModelConfig& mc = model.config();
  const int vocab = static_cast<int>(mc.vocab);
  const int64_t d = std::max(1, shapes.decode_rows);
  const int64_t page = model.kv_cache().config().page_size;
  const auto align = [page](int64_t x) { return std::max(page, x / page * page); };
  const int64_t ctx = align(shapes.decode_context);
  const int64_t prefix = align(shapes.prefill_prefix);
  qserve::AttentionConfig acfg;
  acfg.n_heads = mc.n_heads;
  acfg.n_kv_heads = mc.n_kv_heads;
  acfg.head_dim = mc.head_dim;
  acfg.fp16_accum = model.scheme().fp16_attention;
  SplitMix rng(0x5EED);
  ReplayResult r;

  // --- model: forward_step replays against the engine's own KV pool -------
  GemmSetTime decode_set, prefill_set;
  double norm_quant_s = 0, attn_decode_s = 0;
  {
    Span layer(trace, "replay.model", "bench");
    const int base = model.begin_sequence();
    const int64_t base_len = std::max(ctx, prefix);
    for (int64_t pos = 0; pos < base_len; pos += kChunk) {
      qserve::BatchedStep st;
      st.chunks.push_back(
          {base, random_tokens(std::min(kChunk, base_len - pos), vocab, rng),
           static_cast<int>(pos), 0});
      model.forward_step(st);
    }
    // Decode rows: d sequences forked at a page boundary (the appended token
    // opens a fresh page, so no copy-on-write), rolled back after each call.
    std::vector<int> forks;
    for (int64_t i = 0; i < d; ++i)
      forks.push_back(model.fork_sequence(base, ctx));
    qserve::BatchedStep decode;
    for (int f : forks)
      decode.chunks.push_back(
          {f, random_tokens(1, vocab, rng), static_cast<int>(ctx), 1});
    const auto rollback = [&] {
      for (int f : forks) model.truncate_sequence(f, ctx);
    };
    const auto fwd_decode = [&] { model.forward_step(decode); };
    r.fwd_decode_ms =
        1e3 * median_seconds(trace, "forward_step decode", "model", fwd_decode,
                             rollback);
    int fork = model.fork_sequence(base, prefix);
    qserve::BatchedStep chunk;
    chunk.chunks.push_back({fork, random_tokens(kChunk, vocab, rng),
                            static_cast<int>(prefix), 1});
    r.fwd_prefill_ms =
        1e3 * median_seconds(
                  trace, "forward_step prefill_chunk", "model",
                  [&] { model.forward_step(chunk); },
                  [&] {
                    model.end_sequence(fork);
                    fork = model.fork_sequence(base, prefix);
                    chunk.chunks[0].seq = fork;
                  });
    {
      Span par(trace, "replay.parallel", "bench");
      r.fwd_decode_scaling = thread_scaling(shapes.threads, [&] {
        return median_seconds(trace, "forward_step decode", "parallel",
                              fwd_decode, rollback);
      });
    }
    model.end_sequence(fork);
    for (int f : forks) model.end_sequence(f);
    model.end_sequence(base);
  }

  // --- kvcache: append and fused decode attention on a private pool -------
  {
    Span layer(trace, "replay.kvcache", "bench");
    qserve::KvCacheConfig kcfg = model.kv_cache().config();
    kcfg.max_pages = 1 << 20;
    qserve::PagedKvCache cache(kcfg);
    const int64_t kv_dim = mc.kv_dim();
    const Tensor k = random_tensor(kChunk, kv_dim, rng);
    const Tensor v = random_tensor(kChunk, kv_dim, rng);
    int seq = cache.alloc_sequence();
    const double append_s = median_seconds(
        trace, "append_batch", "kvcache",
        [&] { cache.append_batch(seq, k.data(), v.data(), kChunk); },
        [&] {
          cache.free_sequence(seq);
          seq = cache.alloc_sequence();
        });
    cache.free_sequence(seq);
    r.append_us_per_tok = 1e6 * append_s / double(kChunk);

    std::vector<int> seqs;
    for (int64_t i = 0; i < d; ++i) {
      seqs.push_back(cache.alloc_sequence());
      for (int64_t pos = 0; pos < ctx; pos += kChunk) {
        const int64_t n = std::min(kChunk, ctx - pos);
        cache.append_batch(seqs.back(), k.data(), v.data(), n);
      }
    }
    const Tensor q = random_tensor(d, mc.q_dim(), rng);
    Tensor out({d, mc.q_dim()});
    std::vector<qserve::DecodeAttentionItem> items;
    for (int64_t i = 0; i < d; ++i)
      items.push_back({seqs[size_t(i)], q.row(i), out.row(i)});
    attn_decode_s = median_seconds(
        trace, "batched_fused_decode_attention", "kvcache",
        [&] { qserve::batched_fused_decode_attention(cache, items, acfg); });
    // INT4 K and V codes (head_dim / 2 bytes each) plus an FP16 scale/zero
    // pair for each, per token and KV head.
    const double bytes = double(d) * double(ctx) * mc.n_kv_heads *
                         (double(mc.head_dim) + 8.0);
    r.attn_decode_gbps = bytes / attn_decode_s / 1e9;
    for (int s : seqs) cache.free_sequence(s);
  }

  // --- kernels: GEMM sets, prefill attention, norm + quant + RoPE ----------
  const std::vector<Projection> projs =
      pack_projections(weights.layers[0], model.scheme());
  Tensor lm_head = weights.lm_head;
  for (int64_t i = 0; i < lm_head.numel(); ++i)
    lm_head[i] = qserve::to_half_precision(lm_head[i]);
  {
    Span layer(trace, "replay.kernels", "bench");
    decode_set = time_gemm_set(projs, lm_head, d, rng, trace);
    r.gemm_decode_gops =
        decode_set.ops / (decode_set.proj_seconds + decode_set.head_seconds) /
        1e9;
    r.gemm_decode_gbps =
        decode_set.bytes / (decode_set.proj_seconds + decode_set.head_seconds) /
        1e9;
    prefill_set = time_gemm_set(projs, lm_head, kChunk, rng, trace);
    r.gemm_prefill_gops = prefill_set.ops /
                          (prefill_set.proj_seconds + prefill_set.head_seconds) /
                          1e9;

    const Tensor q = random_tensor(kChunk, mc.q_dim(), rng);
    const Tensor kk = random_tensor(prefix + kChunk, mc.kv_dim(), rng);
    const Tensor vv = random_tensor(prefix + kChunk, mc.kv_dim(), rng);
    const double attn_s =
        median_seconds(trace, "attention_prefill", "kernels",
                       [&] { qserve::attention_prefill(q, kk, vv, acfg); });
    // Causal chunk: row i sees prefix + i + 1 keys; QK and SV are one
    // multiply-add each per head channel.
    double visible = 0;
    for (int64_t i = 0; i < kChunk; ++i) visible += double(prefix + i + 1);
    r.attn_prefill_gops =
        visible * mc.n_heads * mc.head_dim * 4.0 / attn_s / 1e9;

    const Tensor x = random_tensor(d, mc.hidden, rng);
    Tensor qd = random_tensor(d, mc.q_dim(), rng);
    Tensor kd = random_tensor(d, mc.kv_dim(), rng);
    std::vector<int> positions(static_cast<size_t>(d), static_cast<int>(ctx));
    norm_quant_s = median_seconds(trace, "rms_norm_quant+rope_inplace",
                                  "kernels", [&] {
                                    qserve::rms_norm_quant(
                                        x, weights.layers[0].ln_attn);
                                    qserve::rope_inplace(qd, positions,
                                                         mc.head_dim);
                                    qserve::rope_inplace(kd, positions,
                                                         mc.head_dim);
                                  });
    r.norm_quant_us = 1e6 * norm_quant_s;
  }

  // --- common/parallel: the decode GEMM set on 1 and on 2 threads ---------
  {
    Span layer(trace, "replay.parallel", "bench");
    r.gemm_decode_scaling = thread_scaling(shapes.threads, [&] {
      const GemmSetTime g = time_gemm_set(projs, lm_head, d, rng, trace);
      return g.proj_seconds + g.head_seconds;
    });
  }

  // The kernel calls that make up one decode forward: per layer the seven
  // projections, one norm + quant + RoPE, the KV appends and the decode
  // attention; then the LM head.
  const double attributed_s =
      mc.n_layers * (decode_set.proj_seconds + norm_quant_s +
                     double(d) * r.append_us_per_tok * 1e-6 + attn_decode_s) +
      decode_set.head_seconds;
  r.unattributed_frac = 1.0 - 1e3 * attributed_s / r.fwd_decode_ms;
  return r;
}

}  // namespace servebench
