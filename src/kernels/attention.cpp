#include "kernels/attention.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/half.h"
#include "common/math_util.h"
#include "common/parallel.h"
#include "kernels/cpu/attention_kernel.h"
#include "kernels/cpu/isa.h"

namespace qserve {

void AttentionConfig::validate(bool int4_kv) const {
  QS_CHECK_MSG(n_heads > 0, "AttentionConfig: n_heads must be positive, got "
                                << n_heads);
  QS_CHECK_MSG(n_kv_heads > 0,
               "AttentionConfig: n_kv_heads must be positive, got "
                   << n_kv_heads);
  QS_CHECK_MSG(head_dim > 0, "AttentionConfig: head_dim must be positive, got "
                                 << head_dim);
  QS_CHECK_MSG(n_heads % n_kv_heads == 0,
               "AttentionConfig: n_heads (" << n_heads
                                            << ") must be a multiple of "
                                               "n_kv_heads ("
                                            << n_kv_heads << ")");
  QS_CHECK_MSG(!int4_kv || head_dim % 2 == 0,
               "AttentionConfig: INT4 KV packs two codes per byte, so "
               "head_dim must be even, got "
                   << head_dim);
}

namespace {

// Query rows per unit: the block's scores stay cache-resident while each
// dequantized tile serves kRowBlock × group head-vectors.
constexpr int64_t kRowBlock = 8;
// Tokens per dequantized tile: one default page, 16 KB of floats at
// head_dim 64 — L1-resident while the block's rows read it.
constexpr int64_t kTileTokens = 64;

// One unit: rows [r0, r0 + kRowBlock) of span `sp` (clipped to its n) times
// the GQA group of query heads from local head `l0`, which share one KV head
// whose resident tokens `runs` lists in position order.
void attend_block(const cpu::AttentionKernels& ker, const AttentionConfig& cfg,
                  const std::vector<AttentionRun>& runs,
                  const AttentionSpan& sp, int64_t row_stride, int64_t r0,
                  int l0) {
  const int group = cfg.n_heads / cfg.n_kv_heads;
  const int head_dim = cfg.head_dim;
  const int64_t n_rows = std::min(sp.n - r0, kRowBlock);
  const int64_t p0 = sp.length - sp.n + r0;  // position of the block's row 0
  const int64_t last = p0 + n_rows - 1;
  // Unwindowed is the window that covers the whole sequence.
  const int64_t win = sp.window > 0 ? sp.window : sp.length;
  // Row p sees [0, sink_end(p)) then [tail_lo(p), p + 1); its score for
  // token t sits at t in the first interval, at sink_end(p) + t - tail_lo(p)
  // in the second.
  const auto sink_end = [&](int64_t p) { return std::min(p + 1, sp.sink); };
  const auto tail_lo = [&](int64_t p) {
    return std::max(sp.sink, p + 1 - win);
  };
  const auto n_visible = [&](int64_t p) {
    return sink_end(p) + std::max<int64_t>(0, p + 1 - tail_lo(p));
  };
  const int64_t width = n_visible(last);  // visibility only grows with p

  // Reused per pool thread to keep per-unit heap traffic off the hot path.
  thread_local std::vector<float> scores, tile;
  scores.resize(static_cast<size_t>(n_rows * group * width));
  tile.resize(static_cast<size_t>(kTileTokens * head_dim));
  const auto row_scores = [&](int64_t r, int g) {
    return scores.data() + (r * group + g) * width;
  };
  // Offset of (row r, group head g) in the span's q and out.
  const auto at = [&](int64_t r, int g) {
    return (r0 + r) * row_stride + int64_t(l0 + g) * head_dim;
  };

  // Dequantize the block's visible tokens — [0, sink_end(last)) and
  // [tail_lo(p0), last + 1) — tile by tile in position order, once per pass,
  // and hand each row's visible piece of the tile to fn(r, rows, n, score0).
  const auto for_each_tile = [&](bool is_k, const auto& fn) {
    const int64_t cuts[2][2] = {{0, sink_end(last)}, {tail_lo(p0), last + 1}};
    for (const AttentionRun& ar : runs) {
      const cpu::KvHeadRun& run = is_k ? ar.k : ar.v;
      const int64_t run1 = ar.token0 + run.n_tokens;
      for (const auto& cut : cuts) {
        const int64_t end = std::min(run1, cut[1]);
        for (int64_t t0 = std::max(ar.token0, cut[0]); t0 < end;
             t0 += kTileTokens) {
          const int64_t t1 = std::min(end, t0 + kTileTokens);
          ker.dequant(run, t0 - ar.token0, t1 - t0, head_dim, tile.data());
          for (int64_t r = 0; r < n_rows; ++r) {
            const int64_t p = p0 + r;
            const int64_t a = sink_end(p), lo = tail_lo(p);
            // The row's sink piece, then its window piece: token order.
            const int64_t pieces[2][3] = {
                {t0, std::min(t1, a), 0},
                {std::max(t0, lo), std::min(t1, p + 1), a - lo}};
            for (const auto& pc : pieces)
              if (pc[0] < pc[1])
                fn(r, tile.data() + (pc[0] - t0) * head_dim, pc[1] - pc[0],
                   pc[0] + pc[2]);
          }
        }
      }
    }
  };

  // Pass 1: raw QK dots of every (row, head) into its score slots.
  for_each_tile(true, [&](int64_t r, const float* kt, int64_t n,
                          int64_t score0) {
    for (int g = 0; g < group; ++g)
      ker.qk_dot(sp.q + at(r, g), kt, n, head_dim, row_scores(r, g) + score0);
  });
  const float scale = 1.0f / std::sqrt(float(head_dim));
  for (int64_t r = 0; r < n_rows; ++r) {
    const int64_t n = n_visible(p0 + r);
    for (int g = 0; g < group; ++g) {
      float* sc = row_scores(r, g);
      for (int64_t t = 0; t < n; ++t) {
        // QServe converts the QK product to FP16 (§5.3); the baseline keeps
        // FP32.
        const float dot = sc[t] * scale;
        sc[t] = cfg.fp16_accum ? to_half_precision(dot) : dot;
      }
      softmax_inplace(sc, static_cast<int>(n));
      std::fill_n(sp.out + at(r, g), head_dim, 0.0f);
    }
  }
  // Pass 2: SV accumulation, chained token-sequentially across the tiles.
  for_each_tile(false, [&](int64_t r, const float* vt, int64_t n,
                           int64_t score0) {
    for (int g = 0; g < group; ++g)
      ker.sv_accum(row_scores(r, g) + score0, vt, n, head_dim,
                   sp.out + at(r, g));
  });
  if (cfg.fp16_accum) {
    for (int64_t r = 0; r < n_rows; ++r)
      for (int g = 0; g < group; ++g) {
        float* o = sp.out + at(r, g);
        for (int d = 0; d < head_dim; ++d) o[d] = to_half_precision(o[d]);
      }
  }
}

// Gathered float K/V rows [row0, row0 + n_tokens) of one KV head as a kF32
// run at logical position token0 — the oracle goes through the same
// attend_spans and microkernels as the paged executor, which is what keeps
// the two bitwise equal (tests/test_fused_attention.cpp pins this).
AttentionRun f32_run(const Tensor& k, const Tensor& v, int64_t row0,
                     int64_t kv_head, int head_dim, int64_t n_tokens,
                     int64_t token0) {
  AttentionRun run;
  run.k.kind = run.v.kind = cpu::KvRunKind::kF32;
  run.k.n_tokens = run.v.n_tokens = n_tokens;
  run.k.f32 = k.row(row0) + kv_head * head_dim;
  run.v.f32 = v.row(row0) + kv_head * head_dim;
  run.k.stride = k.cols();
  run.v.stride = v.cols();
  run.token0 = token0;
  return run;
}

}  // namespace

void attend_spans(const std::vector<AttentionSpan>& spans,
                  const AttentionConfig& cfg, int q_head0, int n_q_heads,
                  const AttentionRunsFn& runs_of) {
  const int group = cfg.n_heads / cfg.n_kv_heads;
  QS_CHECK(q_head0 >= 0 && n_q_heads >= 0 &&
           q_head0 + n_q_heads <= cfg.n_heads);
  // GQA-group alignment keeps every KV head's query group in one range.
  QS_CHECK(q_head0 % group == 0 && n_q_heads % group == 0);
  for (const AttentionSpan& sp : spans)
    QS_CHECK_MSG(sp.n >= 0 && sp.n <= sp.length,
                 "attention span of " << sp.n << " rows at length "
                                      << sp.length);
  const cpu::AttentionKernels& ker =
      cpu::attention_kernel_for(cpu::active_isa());
  const int64_t row_stride = int64_t(n_q_heads) * cfg.head_dim;

  // One flat list of (span, KV head, row block) units. Each unit writes only
  // its own rows' output slices, so scheduling order and thread count cannot
  // change the result. Units of one (span, KV head) are adjacent, so a chunk
  // resolves their runs once.
  struct Unit {
    size_t span;
    int kv_head;
    int64_t r0;
  };
  std::vector<Unit> units;
  for (size_t i = 0; i < spans.size(); ++i)
    for (int h = q_head0 / group; h < (q_head0 + n_q_heads) / group; ++h)
      for (int64_t r0 = 0; r0 < spans[i].n; r0 += kRowBlock)
        units.push_back({i, h, r0});
  parallel_for(0, static_cast<int64_t>(units.size()), 1,
               [&](int64_t u0, int64_t u1) {
    thread_local std::vector<AttentionRun> runs;
    size_t runs_span = spans.size();
    int runs_kv_head = -1;
    for (int64_t u = u0; u < u1; ++u) {
      const Unit& un = units[static_cast<size_t>(u)];
      if (un.span != runs_span || un.kv_head != runs_kv_head) {
        runs.clear();
        runs_of(un.span, un.kv_head, runs);
        runs_span = un.span;
        runs_kv_head = un.kv_head;
      }
      attend_block(ker, cfg, runs, spans[un.span], row_stride, un.r0,
                   un.kv_head * group - q_head0);
    }
  });
}

Tensor attention_prefill(const Tensor& q, const Tensor& k, const Tensor& v,
                         const AttentionConfig& cfg) {
  return attention_prefill(q, k, v, cfg, k.rows(), /*sink=*/0, /*window=*/0,
                           /*tail0=*/0);
}

Tensor attention_prefill(const Tensor& q, const Tensor& k, const Tensor& v,
                         const AttentionConfig& cfg, int64_t s_total,
                         int64_t sink, int64_t window, int64_t tail0) {
  cfg.validate();
  QS_CHECK_EQ(q.cols(), int64_t(cfg.n_heads) * cfg.head_dim);
  QS_CHECK_EQ(k.cols(), int64_t(cfg.n_kv_heads) * cfg.head_dim);
  QS_CHECK(k.same_shape(v));
  QS_CHECK_GE(window, 0);
  QS_CHECK_GE(sink, 0);
  const int64_t n = q.rows();
  QS_CHECK_LE(n, s_total);
  // Unwindowed is the window that covers the whole sequence.
  const int64_t win = window > 0 ? window : s_total;
  const int64_t sink_eff = std::min(sink, s_total);
  QS_CHECK(tail0 >= sink_eff && tail0 <= s_total);
  QS_CHECK_EQ(k.rows(), sink_eff + (s_total - tail0));
  // Residency: the earliest query row's window lower bound must still be in
  // the gathered tail (the cache's slack discipline guarantees this; a
  // violation means the caller recycled pages a pending query still needs).
  QS_CHECK_MSG(s_total - n + 1 <= sink ||
                   std::max(sink, s_total - n + 1 - win) >= tail0,
               "attention_prefill: earliest query row (position "
                   << s_total - n << ") needs tokens below the resident tail "
                   << tail0);
  Tensor out({n, q.cols()});
  // The gathered rows at their logical positions: sinks, retained tail.
  attend_spans({{q.data(), out.data(), s_total, n, sink, window}}, cfg, 0,
               cfg.n_heads,
               [&](size_t, int kv_head, std::vector<AttentionRun>& runs) {
                 if (sink_eff > 0)
                   runs.push_back(
                       f32_run(k, v, 0, kv_head, cfg.head_dim, sink_eff, 0));
                 if (k.rows() > sink_eff)
                   runs.push_back(f32_run(k, v, sink_eff, kv_head,
                                          cfg.head_dim, k.rows() - sink_eff,
                                          tail0));
               });
  return out;
}

}  // namespace qserve
