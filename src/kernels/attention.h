// Attention kernels (Eq. 1) with GQA and sliding windows.
//
// One executor computes every attention row: attend_spans. Its unit is one
// KV head and a block of consecutive query rows of one span, times the GQA
// group of query heads that share the KV head. It walks the KV head's
// token runs in position order, dequantizes each run once per unit into a
// thread-local float tile (the ISA-dispatched `dequant` microkernel), and
// runs every (row, query head) of the block on that tile. The runs are
// in-page quantized data when the paged executor walks PagedKvCache pages
// (kvcache/fused_attention.h), or float rows of a gathered K/V matrix in
// attention_prefill below — the INT4/INT8 round-trip error is embedded either
// way, exactly like the fused GPU kernel that dequantizes page data inline.
//
// Numerics contract, per (row, query head): raw QK dots in the canonical lane
// order (kernels/cpu/attention_kernel.h), times 1/sqrt(D) and FP16-rounded
// under fp16_accum, softmax, SV accumulation chained token by token in
// position order, FP16 rounding of the output under fp16_accum.
// `fp16_accum` models QServe's FP32→FP16 conversion of the QK and SV products
// (§5.3). Each score and output is a pure function of the row's visible
// tokens, so the block size, the run and tile boundaries, the thread count
// and the ISA change no bit.
#pragma once

#include <cstdint>
#include <functional>
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
// covering the sequence's logical positions [token0, token0 + k.n_tokens).
struct AttentionRun {
  cpu::KvHeadRun k, v;
  int64_t token0 = 0;
};

// A span of query rows: the last `n` positions of a `length`-token sequence.
// The row at position p attends
//   [0, min(p+1, sink))  ∪  [max(sink, p+1-window), p+1)
// — every row sees its *own* trailing window, not a shared cut — with
// window = 0 meaning unwindowed (a window covering the whole sequence).
struct AttentionSpan {
  const float* q = nullptr;  // [n, q width of the head range], post-RoPE
  float* out = nullptr;      // [n, q width of the head range]
  int64_t length = 0;
  int64_t n = 1;
  int64_t sink = 0;
  int64_t window = 0;
};

// Appends to `runs` the resident tokens of KV head `kv_head` for span
// `span`, in position order; they must cover every row's visible positions.
using AttentionRunsFn = std::function<void(
    size_t span, int kv_head, std::vector<AttentionRun>& runs)>;

// The attention executor: query heads [q_head0, q_head0 + n_q_heads) of
// `cfg` (a GQA-group-aligned range; q/out are that range's slice, rows
// n_q_heads * head_dim apart) for every span, in one parallel_for over
// (span, KV head, block of rows) units.
void attend_spans(const std::vector<AttentionSpan>& spans,
                  const AttentionConfig& cfg, int q_head0, int n_q_heads,
                  const AttentionRunsFn& runs_of);

// Causal self-attention for a chunk of `n` new tokens whose keys/values have
// already been appended. q is [n, H*D], the query rows are logical positions
// s_total-n .. s_total-1, and K, V hold the gathered rows of a logically
// `s_total`-token sequence — exactly what PagedKvCache::gather returns:
//   rows [0, sink_eff)                    = logical tokens [0, sink_eff)
//   rows [sink_eff, k.rows())             = logical tokens [tail0, s_total)
// with sink_eff = min(sink, s_total). Rows attend as in AttentionSpan —
// every row its own trailing window, which is what makes recompute-on-resume
// re-derive bitwise-identical prefill results after preemption. When the two
// intervals are adjacent (p+1 <= sink+window) the row is full causal
// attention, and splitting a run is bitwise a no-op — so window >= context is
// bit-for-bit full attention by construction. This is the float oracle of
// the paged executor (the reference model, QoQ calibration and tests run
// it); it shares attend_spans, so the two agree bit for bit. Returns [n, H*D].
Tensor attention_prefill(const Tensor& q, const Tensor& k, const Tensor& v,
                         const AttentionConfig& cfg, int64_t s_total,
                         int64_t sink, int64_t window, int64_t tail0);

// Full causal attention: the s_total = k.rows(), no sink, unwindowed case —
// the new tokens occupy K/V rows s-n .. s-1.
Tensor attention_prefill(const Tensor& q, const Tensor& k, const Tensor& v,
                         const AttentionConfig& cfg);

}  // namespace qserve
