// Fused decode attention over quantized KV pages (§5.3).
//
// The QServe CUDA kernel never materializes a dequantized K/V matrix: it
// walks the pages, dequantizes each head-vector inline (2-op bit tricks),
// and accumulates QK / SV products in FP16. This is the CPU counterpart: the
// SeqView page-run API hands each head's in-page codes + scales/zeros to
// attend_head (kernels/attention.h), whose ISA-dispatched microkernels
// dequantize inline in SIMD registers. attend_head is also the routine the
// gather-then-attend prefill path runs over float rows, so the two match
// exactly — a property the tests pin down — while this path avoids the
// O(S * kv_dim) temporary.
#pragma once

#include <vector>

#include "kernels/attention.h"
#include "kvcache/paged_kv_cache.h"

namespace qserve {

// One engine step's worth of single-row decode attention: every sequence
// that decodes (or verifies token-by-token) this step contributes one item.
struct DecodeAttentionItem {
  int seq = -1;            // PagedKvCache sequence handle
  const float* q = nullptr;  // [n_heads * head_dim], post-RoPE
  float* out = nullptr;      // [n_heads * head_dim]
};

// The decode executor: resolves each sequence's page table once (one lock
// round per sequence), then walks all items × heads in a single
// parallel_for — one kernel dispatch per engine step instead of a
// per-sequence fan-out. A single sequence is the one-item case. Each
// (item, head) writes only its own output slice, so the result is bitwise
// identical to one call per item in any order, at any thread count, on any
// ISA.
void batched_fused_decode_attention(const PagedKvCache& cache,
                                    const std::vector<DecodeAttentionItem>& items,
                                    const AttentionConfig& cfg);

// Head-ranged executor for tensor-parallel shards: computes only query
// heads [q_head0, q_head0 + n_q_heads) of the FULL config `cfg`, with each
// item's q/out pointing at the shard's own slice (local head 0 = global
// head q_head0). The range must be GQA-group aligned (q_head0 and n_q_heads
// multiples of n_heads / n_kv_heads) so every KV head's query group lives
// in one shard. Per-head arithmetic is the full executor's — a shard's
// output slice is bitwise the corresponding slice of the unsharded call.
void batched_fused_decode_attention(const PagedKvCache& cache,
                                    const std::vector<DecodeAttentionItem>& items,
                                    const AttentionConfig& cfg, int q_head0,
                                    int n_q_heads);

}  // namespace qserve
