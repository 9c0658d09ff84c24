#include "model/reference_model.h"


#include "common/math_util.h"
#include "common/rng.h"
#include "kernels/attention.h"
#include "kernels/gemm.h"
#include "kernels/ops.h"

namespace qserve {

ReferenceModel::ReferenceModel(const ModelWeights* weights) : w_(weights) {
  QS_CHECK(weights != nullptr);
}

Tensor ReferenceModel::forward(const std::vector<int>& tokens) const {
  return forward_calibrate(tokens, nullptr);
}

Tensor ReferenceModel::forward_calibrate(const std::vector<int>& tokens,
                                         CalibrationData* calib) const {
  const ModelConfig& cfg = w_->cfg;
  const int64_t n = static_cast<int64_t>(tokens.size());
  QS_CHECK_GT(n, 0);

  std::vector<int> positions(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) positions[i] = static_cast<int>(i);

  Tensor x({n, cfg.hidden});
  for (int64_t t = 0; t < n; ++t) {
    const int tok = tokens[static_cast<size_t>(t)];
    QS_CHECK(tok >= 0 && tok < cfg.vocab);
    for (int64_t c = 0; c < cfg.hidden; ++c)
      x.at2(t, c) = w_->embedding.at2(tok, c);
  }

  AttentionConfig attn_cfg;
  attn_cfg.n_heads = cfg.n_heads;
  attn_cfg.n_kv_heads = cfg.n_kv_heads;
  attn_cfg.head_dim = cfg.head_dim;

  for (const auto& layer : w_->layers) {
    // --- attention block ---
    Tensor h = rms_norm(x, layer.ln_attn);
    if (calib) calib->attn_input.push_back(h);
    Tensor q = gemm_f32_ref(h, layer.wq);
    Tensor k = gemm_f32_ref(h, layer.wk);
    Tensor v = gemm_f32_ref(h, layer.wv);
    rope_inplace(q, positions, cfg.head_dim);
    rope_inplace(k, positions, cfg.head_dim);
    if (calib) {
      calib->post_rope_keys.push_back(k);
      calib->post_rope_queries.push_back(q);
      calib->values.push_back(v);
    }
    Tensor attn = attention_prefill(q, k, v, attn_cfg);
    if (calib) calib->attn_out.push_back(attn);
    Tensor attn_proj = gemm_f32_ref(attn, layer.wo);
    add_inplace(x, attn_proj);

    // --- FFN block ---
    Tensor h2 = rms_norm(x, layer.ln_ffn);
    if (calib) calib->ffn_input.push_back(h2);
    Tensor gate = gemm_f32_ref(h2, layer.w_gate);
    Tensor up = gemm_f32_ref(h2, layer.w_up);
    Tensor act = swiglu(gate, up);
    if (calib) calib->ffn_act.push_back(act);
    Tensor down = gemm_f32_ref(act, layer.w_down);
    add_inplace(x, down);
  }

  Tensor final_h = rms_norm(x, w_->ln_final);
  return gemm_f32_ref(final_h, w_->lm_head);
}

std::vector<int> ReferenceModel::generate(const std::vector<int>& prompt,
                                          int n_new, float temperature,
                                          uint64_t seed) const {
  QS_CHECK(!prompt.empty());
  Rng rng(seed);
  std::vector<int> tokens = prompt;
  for (int step = 0; step < n_new; ++step) {
    // O(n^2) re-prefill; fine at calibration scale.
    const Tensor logits = forward(tokens);
    const int64_t last = logits.rows() - 1;
    std::vector<float> probs(static_cast<size_t>(w_->cfg.vocab));
    for (int64_t v = 0; v < w_->cfg.vocab; ++v)
      probs[size_t(v)] = logits.at2(last, v) / std::max(temperature, 1e-3f);
    softmax_inplace(probs.data(), static_cast<int>(probs.size()));
    float r = rng.uniform();
    int chosen = 0;
    for (size_t v = 0; v < probs.size(); ++v) {
      r -= probs[v];
      if (r <= 0.0f) {
        chosen = static_cast<int>(v);
        break;
      }
    }
    tokens.push_back(chosen);
  }
  return tokens;
}

}  // namespace qserve
