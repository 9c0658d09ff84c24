#include "model/config.h"

#include <algorithm>

#include "common/check.h"

namespace qserve {

std::vector<ModelConfig> published_models() {
  // name, hidden, layers, heads, kv_heads, head_dim, ffn, vocab
  return {
      {"Llama-3-8B", 4096, 32, 32, 8, 128, 14336, 128256},
      {"Llama-2-7B", 4096, 32, 32, 32, 128, 11008, 32000},
      {"Mistral-7B", 4096, 32, 32, 8, 128, 14336, 32000},
      {"Llama-2-13B", 5120, 40, 40, 40, 128, 13824, 32000},
      {"Llama-30B", 6656, 60, 52, 52, 128, 17920, 32000},
      {"Yi-34B", 7168, 60, 56, 8, 128, 20480, 64000},
      {"Llama-2-70B", 8192, 80, 64, 8, 128, 28672, 32000},
      {"Qwen1.5-72B", 8192, 80, 64, 64, 128, 24576, 152064},
  };
}

ModelConfig model_by_name(const std::string& name) {
  const std::vector<ModelConfig> models = published_models();
  const auto it = std::find_if(models.begin(), models.end(),
                               [&](const ModelConfig& m) {
                                 return m.name == name;
                               });
  // Checked, then returned: a -fsanitize=thread build cannot see that a
  // failed check never falls off the end of the function (-Wreturn-type).
  QS_CHECK_MSG(it != models.end(), "unknown model: " << name);
  return *it;
}

ModelConfig toy_config(int n_layers) {
  ModelConfig cfg;
  cfg.name = "toy-gqa";
  cfg.hidden = 256;
  cfg.n_layers = n_layers;
  cfg.n_heads = 4;
  cfg.n_kv_heads = 2;
  cfg.head_dim = 64;
  cfg.ffn_dim = 512;
  cfg.vocab = 512;
  return cfg;
}

ModelConfig toy_config_mha(int n_layers) {
  ModelConfig cfg = toy_config(n_layers);
  cfg.name = "toy-mha";
  cfg.n_kv_heads = cfg.n_heads;
  return cfg;
}

ModelConfig toy_config_gqa4(int n_layers) {
  ModelConfig cfg;
  cfg.name = "toy-gqa4";
  cfg.hidden = 256;
  cfg.n_layers = n_layers;
  cfg.n_heads = 8;
  cfg.n_kv_heads = 2;
  cfg.head_dim = 32;
  cfg.ffn_dim = 512;
  cfg.vocab = 512;
  return cfg;
}

}  // namespace qserve
