// Speculative decoding end to end on the real quantized CPU engine:
// a layer-skip draft (the target's first 2 of 4 layers, sharing embedding
// and LM head) proposes k tokens per step, the target scores all k+1
// positions in ONE batched verify forward, the longest matching prefix is
// accepted, and the rejected tail is rolled back from both KV caches with
// truncate_sequence. Greedy acceptance keeps the streams bitwise identical
// to the non-speculative engine — this example checks that claim on every
// request it runs.
#include <cstdio>

#include "serving/engine.h"

using namespace qserve;

namespace {

ModelConfig demo_config() {
  ModelConfig cfg;
  cfg.name = "spec-demo";
  cfg.hidden = 256;
  cfg.n_layers = 4;
  cfg.n_heads = 4;
  cfg.n_kv_heads = 2;
  cfg.head_dim = 64;
  cfg.ffn_dim = 512;
  cfg.vocab = 512;
  return cfg;
}

std::vector<std::vector<int>> run(QuantizedModel* target,
                                  QuantizedModel* draft, int lookahead_k,
                                  EngineStats* stats_out) {
  EngineConfig cfg;
  cfg.scheduler.max_batch = 4;
  cfg.speculative.lookahead_k = lookahead_k;
  ServingEngine engine(target, draft, cfg);
  std::vector<int> ids;
  for (int i = 0; i < 4; ++i) {
    std::vector<int> prompt;
    for (int t = 0; t < 6 + 2 * i; ++t) prompt.push_back((13 * t + i) % 512);
    ids.push_back(engine.submit(prompt, 24));
  }
  *stats_out = engine.drain();
  std::vector<std::vector<int>> streams;
  for (int id : ids) streams.push_back(engine.request(id).generated);
  return streams;
}

}  // namespace

int main() {
  const ModelWeights target_w = make_synthetic_weights(demo_config());
  ModelWeights draft_w = target_w;  // layer-skip self-draft: first 2 layers
  draft_w.cfg.n_layers = 2;
  draft_w.layers.resize(2);

  QuantizedModel target(target_w, QuantSchemeConfig::qserve_w4a8kv4_g128());
  QuantizedModel draft(draft_w, QuantSchemeConfig::qserve_w4a8kv4_g128());
  QuantizedModel baseline(target_w,
                          QuantSchemeConfig::qserve_w4a8kv4_g128());

  std::printf("4 requests, W4A8KV4 target (4 layers) + layer-skip draft "
              "(2 layers), k=4\n\n");

  EngineStats spec_stats, base_stats;
  const auto spec_streams = run(&target, &draft, /*lookahead_k=*/4,
                                &spec_stats);
  const auto base_streams = run(&baseline, nullptr, 0, &base_stats);

  std::printf("speculative engine: %lld steps (%lld verify steps), "
              "decode %.1f tok/s\n",
              static_cast<long long>(spec_stats.steps),
              static_cast<long long>(spec_stats.verify_steps),
              spec_stats.decode_tokens_per_second);
  std::printf("  proposed %lld draft tokens, accepted %lld "
              "(acceptance %.0f%%)\n",
              static_cast<long long>(spec_stats.proposed_tokens),
              static_cast<long long>(spec_stats.accepted_tokens),
              100.0 * spec_stats.acceptance_rate);
  std::printf("  target forwards per decode token: %.2f (baseline spends "
              "exactly 1.00)\n",
              spec_stats.target_forwards_per_decode_token);
  std::printf("baseline engine:    %lld steps, decode %.1f tok/s\n\n",
              static_cast<long long>(base_stats.steps),
              base_stats.decode_tokens_per_second);

  bool identical = spec_streams == base_streams;
  std::printf("token streams bitwise identical to the baseline: %s\n",
              identical ? "yes" : "NO — BUG");
  return identical ? 0 : 1;
}
