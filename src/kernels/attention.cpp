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

void attend_head(const cpu::AttentionKernels& ker, const float* qh,
                 const AttentionRun* runs, int n_runs, int64_t n_scores,
                 int head_dim, bool fp16_accum, float* scores, float* out) {
  const float scale = 1.0f / std::sqrt(float(head_dim));
  // Pass 1: raw QK dots, run by run, into each run's score slots.
  for (int r = 0; r < n_runs; ++r)
    ker.qk_dot(qh, runs[r].k, head_dim, scores + runs[r].score0);
  for (int64_t t = 0; t < n_scores; ++t) {
    // QServe converts the QK product to FP16 (§5.3); the baseline keeps FP32.
    const float dot = scores[t] * scale;
    scores[t] = fp16_accum ? to_half_precision(dot) : dot;
  }
  softmax_inplace(scores, static_cast<int>(n_scores));
  // Pass 2: SV accumulation, chained token-sequentially across the runs.
  for (int d = 0; d < head_dim; ++d) out[d] = 0.0f;
  for (int r = 0; r < n_runs; ++r)
    ker.sv_accum(scores + runs[r].score0, runs[r].v, head_dim, out);
  if (fp16_accum) {
    for (int d = 0; d < head_dim; ++d) out[d] = to_half_precision(out[d]);
  }
}

namespace {

// Gathered float K/V rows [row0, row0 + n_tokens) of one KV head as a kF32
// run, placed at score0 — the gather/prefill path goes through the exact same
// routine and microkernels as the fused paged path, which is what keeps the
// two bitwise equal (tests/test_fused_attention.cpp pins this).
AttentionRun f32_run(const Tensor& k, const Tensor& v, int64_t row0,
                     int64_t kv_head, int head_dim, int64_t n_tokens,
                     int64_t score0) {
  AttentionRun run;
  run.k.kind = run.v.kind = cpu::KvRunKind::kF32;
  run.k.n_tokens = run.v.n_tokens = n_tokens;
  run.k.f32 = k.row(row0) + kv_head * head_dim;
  run.v.f32 = v.row(row0) + kv_head * head_dim;
  run.k.stride = k.cols();
  run.v.stride = v.cols();
  run.score0 = score0;
  return run;
}

}  // namespace

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
  const int group = cfg.n_heads / cfg.n_kv_heads;
  const cpu::AttentionKernels& ker = cpu::attention_kernel_for(cpu::active_isa());

  Tensor out({n, q.cols()});
  // Parallel over query positions; every (position, head) pair is
  // independent, so the result is bitwise identical to the serial loop.
  parallel_for(0, n, 1, [&](int64_t i0, int64_t i1) {
    // Reused per pool thread to keep per-row heap traffic off the hot path.
    thread_local std::vector<float> scores;
    scores.resize(static_cast<size_t>(std::min(s_total, sink + win)));
    for (int64_t i = i0; i < i1; ++i) {
      const int64_t p = s_total - n + i;            // logical position
      const int64_t a = std::min(p + 1, sink_eff);  // sink rows [0, a)
      const int64_t lo2 = std::max(sink, p + 1 - win);
      const int64_t cnt2 = std::max<int64_t>(0, p + 1 - lo2);
      const int64_t row2 = sink_eff + (lo2 - tail0);
      for (int h = 0; h < cfg.n_heads; ++h) {
        const int64_t kv_head = h / group;
        AttentionRun runs[2];
        int n_runs = 0;
        if (a > 0)
          runs[n_runs++] = f32_run(k, v, 0, kv_head, cfg.head_dim, a, 0);
        if (cnt2 > 0)
          runs[n_runs++] =
              f32_run(k, v, row2, kv_head, cfg.head_dim, cnt2, a);
        attend_head(ker, q.row(i) + int64_t(h) * cfg.head_dim, runs, n_runs,
                    a + cnt2, cfg.head_dim, cfg.fp16_accum, scores.data(),
                    out.row(i) + int64_t(h) * cfg.head_dim);
      }
    }
  });
  return out;
}

void attention_decode_token(const float* q, const Tensor& k, const Tensor& v,
                            const AttentionConfig& cfg, float* out) {
  cfg.validate();
  QS_CHECK_EQ(k.cols(), int64_t(cfg.n_kv_heads) * cfg.head_dim);
  QS_CHECK(k.same_shape(v));
  const int64_t s = k.rows();
  const int group = cfg.n_heads / cfg.n_kv_heads;
  const cpu::AttentionKernels& ker = cpu::attention_kernel_for(cpu::active_isa());
  parallel_for(0, cfg.n_heads, 1, [&](int64_t h0, int64_t h1) {
    // Reused per pool thread to keep per-head heap traffic off the hot path.
    thread_local std::vector<float> scores;
    scores.resize(static_cast<size_t>(s));
    for (int64_t h = h0; h < h1; ++h) {
      const AttentionRun run =
          f32_run(k, v, 0, h / group, cfg.head_dim, s, 0);
      attend_head(ker, q + h * cfg.head_dim, &run, 1, s, cfg.head_dim,
                  cfg.fp16_accum, scores.data(), out + h * cfg.head_dim);
    }
  });
}

}  // namespace qserve
