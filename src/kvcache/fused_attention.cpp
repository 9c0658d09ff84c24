#include "kvcache/fused_attention.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace qserve {

void batched_fused_decode_attention(
    const PagedKvCache& cache, const std::vector<DecodeAttentionItem>& items,
    const AttentionConfig& cfg) {
  batched_fused_decode_attention(cache, items, cfg, 0, cfg.n_heads);
}

void batched_fused_decode_attention(
    const PagedKvCache& cache, const std::vector<DecodeAttentionItem>& items,
    const AttentionConfig& cfg, int q_head0, int n_q_heads) {
  if (items.empty() || n_q_heads == 0) return;
  cfg.validate(cache.config().precision == KvPrecision::kInt4);
  QS_CHECK_EQ(cfg.n_kv_heads, cache.config().n_kv_heads);
  QS_CHECK_EQ(cfg.head_dim, cache.config().head_dim);
  // One locked page-table snapshot per sequence, resolved up front so the
  // parallel region never touches the cache mutex.
  std::vector<PagedKvCache::SeqView> views;
  std::vector<AttentionSpan> spans;
  views.reserve(items.size());
  for (const DecodeAttentionItem& it : items) {
    views.push_back(cache.view(it.seq));
    const PagedKvCache::SeqView& kv = views.back();
    spans.push_back({it.q, it.out, kv.length(), it.n, kv.sink(), kv.window()});
    // Residency: the earliest row's window lower bound must still be in the
    // retained tail (the cache's slack discipline guarantees it for spans
    // up to slack rows).
    const int64_t p = kv.length() - it.n;
    QS_CHECK_MSG(kv.window() == 0 || p + 1 <= kv.sink() ||
                     std::max(kv.sink(), p + 1 - kv.window()) >= kv.tail0(),
                 "attention span: earliest row (position "
                     << p << ") needs tokens below the resident tail "
                     << kv.tail0());
  }
  // Each unit reads its KV head's page runs in place: in-page codes and
  // scales, dequantized by the microkernels, no per-(token, head) copies.
  attend_spans(spans, cfg, q_head0, n_q_heads,
               [&](size_t i, int kv_head, std::vector<AttentionRun>& runs) {
                 const PagedKvCache::SeqView& kv = views[i];
                 for (int r = 0; r < kv.num_page_runs(); ++r)
                   runs.push_back({kv.k_run(r, kv_head), kv.v_run(r, kv_head),
                                   kv.run_token0(r)});
               });
}

}  // namespace qserve
