#include "kvcache/fused_attention.h"

#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "kernels/cpu/isa.h"

namespace qserve {

namespace {

void check_against_cache(const PagedKvCache& cache,
                         const AttentionConfig& cfg) {
  cfg.validate(cache.config().precision == KvPrecision::kInt4);
  QS_CHECK_EQ(cfg.n_kv_heads, cache.config().n_kv_heads);
  QS_CHECK_EQ(cfg.head_dim, cache.config().head_dim);
}

}  // namespace

void batched_fused_decode_attention(
    const PagedKvCache& cache, const std::vector<DecodeAttentionItem>& items,
    const AttentionConfig& cfg) {
  batched_fused_decode_attention(cache, items, cfg, 0, cfg.n_heads);
}

void batched_fused_decode_attention(
    const PagedKvCache& cache, const std::vector<DecodeAttentionItem>& items,
    const AttentionConfig& cfg, int q_head0, int n_q_heads) {
  if (items.empty() || n_q_heads == 0) return;
  check_against_cache(cache, cfg);
  const int group = cfg.n_heads / cfg.n_kv_heads;
  QS_CHECK(q_head0 >= 0 && n_q_heads >= 0 &&
           q_head0 + n_q_heads <= cfg.n_heads);
  // GQA-group alignment keeps every KV head's query group in one shard.
  QS_CHECK(q_head0 % group == 0 && n_q_heads % group == 0);
  const cpu::AttentionKernels& ker =
      cpu::attention_kernel_for(cpu::active_isa());

  // One locked page-table snapshot per sequence, resolved up front so the
  // big parallel region below never touches the cache mutex.
  std::vector<PagedKvCache::SeqView> views;
  views.reserve(items.size());
  for (const DecodeAttentionItem& it : items) {
    views.push_back(cache.view(it.seq));
    QS_CHECK_GT(views.back().length(), 0);
  }

  // One flat work list over all sequences × heads for the whole engine step.
  // Each (item, head) pair owns its output slice exclusively, so scheduling
  // order and thread count cannot change the result. Local head l maps to
  // global query head q_head0 + l; items' q/out are slice-relative.
  //
  // Each (item, head) hands the view's page runs for its KV head — in-page
  // codes and scales, dequantized inline by the microkernels, no
  // per-(token, head) scratch copies — to the shared attend_head routine.
  // Work items of one GQA group are adjacent, so a chunk resolves each
  // (item, KV head)'s runs once for the whole group. Scores are indexed by
  // the view's compact score offsets: a sliding-window view exposes only the
  // sink + window runs, so the buffer holds visible_tokens() entries.
  const int64_t n_work = int64_t(items.size()) * n_q_heads;
  parallel_for(0, n_work, 1, [&](int64_t w0, int64_t w1) {
    // Reused per pool thread to keep per-head heap traffic off the hot path.
    thread_local std::vector<float> scores;
    thread_local std::vector<AttentionRun> runs;
    size_t runs_item = items.size();
    int runs_kv_head = -1;
    for (int64_t w = w0; w < w1; ++w) {
      const size_t i = static_cast<size_t>(w / n_q_heads);
      const int l = static_cast<int>(w % n_q_heads);
      const PagedKvCache::SeqView& kv = views[i];
      const int kv_head = (q_head0 + l) / group;
      if (i != runs_item || kv_head != runs_kv_head) {
        runs.resize(static_cast<size_t>(kv.num_page_runs()));
        for (int r = 0; r < kv.num_page_runs(); ++r)
          runs[static_cast<size_t>(r)] = {kv.k_run(r, kv_head),
                                          kv.v_run(r, kv_head),
                                          kv.run_score0(r)};
        runs_item = i;
        runs_kv_head = kv_head;
      }
      scores.resize(static_cast<size_t>(kv.visible_tokens()));
      attend_head(ker, items[i].q + int64_t(l) * cfg.head_dim, runs.data(),
                  kv.num_page_runs(), kv.visible_tokens(), cfg.head_dim,
                  cfg.fp16_accum, scores.data(),
                  items[i].out + int64_t(l) * cfg.head_dim);
    }
  });
}

}  // namespace qserve
