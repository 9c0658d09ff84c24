// Parallel sampling end to end on the real quantized CPU engine: one prompt,
// RequestOptions::n = 4 completions. The submitted request prefills the
// prompt once; at first-token time the engine forks three sibling requests
// whose KV sequences share the prompt's pages copy-on-write through the
// prefix cache — each sibling's admission forks the cached page-aligned
// prefix (refcount++, zero bytes copied) and prefills only the unaligned
// tail. The example prints how many pages were shared vs. copied, and
// demonstrates a true CoW copy with an unaligned model-level fork at the
// end. With temperature > 0 the four streams diverge; at temperature 0 they
// would all repeat the primary's stream.
#include <cstdio>

#include "serving/engine.h"

using namespace qserve;

namespace {

ModelConfig demo_config() {
  ModelConfig cfg;
  cfg.name = "parallel-sampling-demo";
  cfg.hidden = 256;
  cfg.n_layers = 4;
  cfg.n_heads = 4;
  cfg.n_kv_heads = 2;
  cfg.head_dim = 64;
  cfg.ffn_dim = 512;
  cfg.vocab = 512;
  return cfg;
}

}  // namespace

int main() {
  const ModelWeights weights = make_synthetic_weights(demo_config());
  QuantizedModel model(weights, QuantSchemeConfig::qserve_w4a8kv4_g128());

  EngineConfig cfg;
  cfg.prefix_caching = true;  // siblings fork the prompt's cached pages
  cfg.temperature = 0.8f;
  cfg.sample_seed = 42;
  cfg.scheduler.prefill_chunk = 32;

  ServingEngine engine(&model, cfg);
  std::vector<int> prompt;
  for (int t = 0; t < 48; ++t) prompt.push_back((17 * t + 3) % 512);

  RequestOptions opts;
  opts.n = 4;
  opts.max_new_tokens = 16;
  std::printf("1 prompt (%zu tokens), n=%d sampled completions, "
              "temperature %.1f, W4A8KV4\n\n",
              prompt.size(), opts.n, double(cfg.temperature));

  const int primary = engine.submit(prompt, opts, nullptr, nullptr);
  const EngineStats stats = engine.drain();

  const Request& rp = engine.request(primary);
  std::vector<int> ids{primary};
  ids.insert(ids.end(), rp.sibling_ids.begin(), rp.sibling_ids.end());
  for (const int id : ids) {
    const Request& r = engine.request(id);
    std::printf("sample %d:", r.sample_index);
    for (const int tok : r.generated) std::printf(" %d", tok);
    std::printf("\n");
  }

  // Page accounting: each sibling's fork bumped refcounts on the prompt's
  // cached pages instead of copying them; engine forks are page-aligned, so
  // no sibling ever wrote into a shared page.
  std::printf("\nprompt KV reused from shared pages: %lld tokens "
              "(%lld prefill tokens skipped)\n",
              static_cast<long long>(stats.prefix_tokens_reused),
              static_cast<long long>(stats.prefill_tokens_saved));
  std::printf("copy-on-write page copies during serving: %lld (forks are "
              "page-aligned)\n",
              static_cast<long long>(stats.cow_page_copies));
  std::printf("prefix cache after drain: %lld entries holding %lld pages\n",
              static_cast<long long>(stats.prefix_cache_entries),
              static_cast<long long>(stats.prefix_cache_pages));

  // An UNALIGNED fork at the model level shows the CoW machinery itself:
  // fork mid-page, append to the fork, and the shared boundary page is
  // copied before the write — the donor's bytes never change.
  engine.clear_prefix_cache();
  const int src = model.begin_sequence();
  model.prefill(src, std::vector<int>(prompt.begin(), prompt.begin() + 10));
  const int64_t copies_before = model.kv_cache().cow_page_copies();
  const int fork = model.fork_sequence(src, /*upto_len=*/10);  // mid-page
  const int64_t shared = model.kv_cache().shared_pages();
  // First write into the shared tail page: the cache copies it privately.
  model.prefill(fork, {1, 2, 3});  // positions 10-12
  const int64_t copies = model.kv_cache().cow_page_copies() - copies_before;
  std::printf("\nunaligned model-level fork at token 10: %lld shared pages, "
              "appending to the fork copied %lld page(s) on write\n",
              static_cast<long long>(shared),
              static_cast<long long>(copies));

  model.end_sequence(src);
  model.end_sequence(fork);
  const bool clean = model.kv_cache().pages_in_use() == 0 &&
                     model.kv_cache().shared_pages() == 0;
  std::printf("pool drained to zero pages: %s\n", clean ? "yes" : "NO — BUG");
  return clean && copies > 0 ? 0 : 1;
}
