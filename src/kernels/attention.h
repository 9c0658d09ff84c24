// Attention kernels (Eq. 1) for prefill and decode, with GQA support.
//
// Every path computes a head through one routine, attend_head: QK dots over
// a list of KV head runs, scaling (FP16-rounded under fp16_accum), softmax,
// SV accumulation chained across the runs, FP16 rounding of the output. The
// runs are either in-page quantized data (the fused decode path walks
// PagedKvCache pages, kvcache/fused_attention.h) or float rows of a
// dequantized gather (the prefill path below), so the INT4/INT8 round-trip
// error is embedded either way, exactly like the fused GPU kernel that
// dequantizes page data inline. `fp16_accum` models QServe's FP32→FP16
// conversion of the QK and SV products (§5.3).
#pragma once

#include <vector>

#include "kernels/cpu/attention_kernel.h"
#include "tensor/tensor.h"

namespace qserve {

struct AttentionConfig {
  int n_heads = 8;
  int n_kv_heads = 8;   // GQA when < n_heads
  int head_dim = 64;
  bool fp16_accum = false;

  // Loud construction-time validation (same pattern as BatchedStep in PR 4):
  // throws CheckError unless n_heads/n_kv_heads/head_dim are positive,
  // n_heads is a multiple of n_kv_heads, and — when the KV cache stores
  // nibble-packed INT4 codes — head_dim is even. Call once where the config
  // is built; the kernels then only re-check shapes against their inputs.
  void validate(bool int4_kv = false) const;
};

// One KV head's contiguous token run — K and V in the same storage form —
// and the offset of its first token in the caller's score buffer.
struct AttentionRun {
  cpu::KvHeadRun k, v;
  int64_t score0 = 0;
};

// One query head-vector qh[head_dim] attending `n_runs` runs whose score
// slots tile [0, n_scores) of `scores` (a caller-owned buffer of n_scores
// floats); writes out[head_dim]. Runs must be listed in token order: the SV
// accumulation per output element is token-sequential across them, so
// splitting a run into adjacent pieces is bitwise a no-op. Allocates
// nothing.
void attend_head(const cpu::AttentionKernels& ker, const float* qh,
                 const AttentionRun* runs, int n_runs, int64_t n_scores,
                 int head_dim, bool fp16_accum, float* scores, float* out);

// Causal self-attention for a chunk of `n` new tokens whose keys/values have
// already been appended. q is [n, H*D], the query rows are logical positions
// s_total-n .. s_total-1, and K, V hold the gathered rows of a logically
// `s_total`-token sequence — exactly what PagedKvCache::gather_heads returns:
//   rows [0, sink_eff)                    = logical tokens [0, sink_eff)
//   rows [sink_eff, k.rows())             = logical tokens [tail0, s_total)
// with sink_eff = min(sink, s_total). The row at position p attends
//   [0, min(p+1, sink))  ∪  [max(sink, p+1-window), p+1)
// i.e. every row sees its *own* trailing window into history, not a shared
// cut — this is what makes recompute-on-resume re-derive bitwise-identical
// prefill results after preemption. window = 0 means unwindowed (a window
// covering the whole sequence). When the two intervals are adjacent
// (p+1 <= sink+window) the row is full causal attention and attend_head's
// split runs are bitwise one run — so window >= context is bit-for-bit full
// attention by construction. Returns [n, H*D].
Tensor attention_prefill(const Tensor& q, const Tensor& k, const Tensor& v,
                         const AttentionConfig& cfg, int64_t s_total,
                         int64_t sink, int64_t window, int64_t tail0);

// Full causal attention: the s_total = k.rows(), no sink, unwindowed case —
// the new tokens occupy K/V rows s-n .. s-1.
Tensor attention_prefill(const Tensor& q, const Tensor& k, const Tensor& v,
                         const AttentionConfig& cfg);

// Decode: one query token against `s` cached keys/values. q is [H*D],
// K, V are [s, HKV*D]. Writes H*D floats to `out`.
void attention_decode_token(const float* q, const Tensor& k, const Tensor& v,
                            const AttentionConfig& cfg, float* out);

}  // namespace qserve
