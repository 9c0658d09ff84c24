// The attention executor over quantized KV pages (§5.3).
//
// The QServe CUDA kernel never materializes a dequantized K/V matrix: it
// walks the pages, dequantizes each head-vector inline, and accumulates QK /
// SV products in FP16. This is the CPU counterpart, and the model's only
// attention call: every span of a step — decode rows, speculative verify
// spans and prefill chunks alike — is one item. The SeqView page-run API
// hands each KV head's resident in-page codes + scales/zeros to attend_spans
// (kernels/attention.h), which dequantizes each page run once per (item, KV
// head, block of rows) into an L1 float tile and serves every row and GQA
// query head of the block from it. attend_spans is also what the float
// oracle attention_prefill runs over gathered rows, so the two match exactly
// — a property the tests pin down — while this path never builds the
// O(context) float gather.
#pragma once

#include <vector>

#include "kernels/attention.h"
#include "kvcache/paged_kv_cache.h"

namespace qserve {

// One sequence's span of query rows in an engine step: its last `n`
// positions (a decode row is n = 1; a k+1-row verify span and a prefill
// chunk are longer), whose K/V are already appended.
struct DecodeAttentionItem {
  int seq = -1;              // PagedKvCache sequence handle
  const float* q = nullptr;  // [n, q width], post-RoPE
  float* out = nullptr;      // [n, q width]
  int64_t n = 1;
};

// The executor: resolves each sequence's page table once (one lock round
// per sequence), then walks all (item, KV head, row block) units in a single
// parallel_for — one dispatch per engine step, never a per-sequence fan-out.
// Rows attend with the sequence's sink/window policy, each row its own
// trailing window. Each unit writes only its own output slices, so the
// result is bitwise identical to one call per item in any order, at any
// thread count, on any ISA, and to gather + attention_prefill.
// q/out rows are the q width apart: n_heads * head_dim.
void batched_fused_decode_attention(const PagedKvCache& cache,
                                    const std::vector<DecodeAttentionItem>& items,
                                    const AttentionConfig& cfg);

// Head-ranged executor for tensor-parallel shards: computes only query
// heads [q_head0, q_head0 + n_q_heads) of the FULL config `cfg`, with each
// item's q/out pointing at the shard's own slice (local head 0 = global
// head q_head0, rows n_q_heads * head_dim apart). The range must be GQA-group
// aligned (q_head0 and n_q_heads multiples of n_heads / n_kv_heads) so every
// KV head's query group lives in one shard. Per-head arithmetic is the full
// executor's — a shard's output slice is bitwise the corresponding slice of
// the unsharded call.
void batched_fused_decode_attention(const PagedKvCache& cache,
                                    const std::vector<DecodeAttentionItem>& items,
                                    const AttentionConfig& cfg, int q_head0,
                                    int n_q_heads);

}  // namespace qserve
