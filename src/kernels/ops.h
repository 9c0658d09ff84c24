// Elementwise / normalization operators with the fusion points QServe uses
// (§5.1): activation quantization is fused into the preceding LayerNorm or
// activation kernel, and the token-sum tX needed by the W4A8 epilogue is
// produced by the same pass.
#pragma once

#include "quant/types.h"

namespace qserve {

// RMSNorm over the last dimension: y = x / rms(x) * gamma.
Tensor rms_norm(const Tensor& x, const Tensor& gamma, float eps = 1e-5f);

// Fused RMSNorm + per-token INT8 quantization (QKV / FFN-1 input in Fig. 11).
QuantizedActs rms_norm_quant(const Tensor& x, const Tensor& gamma,
                             float eps = 1e-5f);

// The SwiGLU gate over the two [m, d] halves of the FFN-1 output:
// out = silu(gate) * up with silu(g) = g / (1 + exp(-g)). Rows are
// independent, so stacked batch rows parallelize bitwise-identically.
Tensor swiglu(const Tensor& gate, const Tensor& up);

// Rotary positional embedding applied in-place to a [tokens, heads*dim]
// matrix; `positions[t]` is the absolute position of token t. Pairs channel i
// with channel i + dim/2 inside each head (the convention §4.2 relies on for
// the SmoothAttention constraint λ_i = λ_{i+D/2}).
void rope_inplace(Tensor& x, const std::vector<int>& positions, int head_dim,
                  float theta = 10000.0f);

// y += x
void add_inplace(Tensor& y, const Tensor& x);

}  // namespace qserve
