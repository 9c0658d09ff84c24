// Quantized-tensor containers and granularity descriptors.
//
// Naming follows the paper (§2.2, §4.1):
//   s0 / s(0)  — first-level per-channel FP16 scale
//   s1 / s(1)  — second-level per-group UINT8 scale
//   z          — UINT4 zero point
// Weights are [n, k] with n = output channels and k = input channels; GEMMs
// compute Y[m,n] = X[m,k] * W[n,k]^T as in Figure 4.
#pragma once

#include <cstdint>

#include "tensor/int4.h"
#include "tensor/tensor.h"

namespace qserve {

// ---------------------------------------------------------------------------
// Weight formats
// ---------------------------------------------------------------------------

// W8A8 baseline: per-channel symmetric INT8 (SmoothQuant / TRT-LLM style).
struct W8PerChannel {
  I8Tensor qw;  // [n, k] signed codes
  Tensor s;     // [n] FP16 scales (stored as float, rounded through Half)

  int64_t n() const { return qw.rows(); }
  int64_t k() const { return qw.cols(); }
};

// Per-channel W4A8: one asymmetric UINT4 code per weight, per-channel FP16
// scale and UINT4 zero point (§5.2.2). Dequantization to SINT8 happens in the
// main loop; the zero-point subtraction is folded into the epilogue.
struct W4PerChannel {
  PackedU4 qw;   // [n, k] unsigned 4-bit codes
  U8Tensor z;    // [n] zero points, each in [0, 15]
  Tensor s;      // [n] FP16 scales
  Tensor szw;    // [n] precomputed z*s ("ZS_W" in Eq. 12), FP16

  int64_t n() const { return qw.rows; }
  int64_t k() const { return qw.cols; }
};

// Progressive group quantization (§4.1): level-1 per-channel symmetric INT8
// with protective range [-119,119]; level-2 per-group asymmetric UINT4 with
// UINT8 scales. Dequantizing level 2 reproduces the *integer* level-1 codes,
// so the GEMM runs entirely on the INT8 path.
struct W4PerGroup {
  PackedU4 qw;   // [n, k] unsigned 4-bit codes
  U8Tensor s1;   // [n, k/g] level-2 UINT8 scales, each in [1, 17]
  U8Tensor z;    // [n, k/g] level-2 UINT4 zero points, each in [0, 15]
  Tensor s0;     // [n] level-1 FP16 scales
  int group = 128;

  int64_t n() const { return qw.rows; }
  int64_t k() const { return qw.cols; }
  int64_t num_groups() const { return s1.cols(); }
};

// W4A4 per-group (Atom/QuaRot style): FP16 scales per group, INT4 symmetric
// codes. Partial sums must be dequantized to FP32 inside the main loop — the
// pathology §3.2 analyses.
struct W4A4PerGroup {
  I8Tensor qw;   // [n, k] signed 4-bit codes stored one-per-byte in [-8, 7]
  Tensor s;      // [n, k/g] FP16 group scales
  int group = 128;

  int64_t n() const { return qw.rows(); }
  int64_t k() const { return qw.cols(); }
};

// ---------------------------------------------------------------------------
// Activation format
// ---------------------------------------------------------------------------

// Per-token symmetric INT8 activations (§6.1), plus the per-token input-channel
// sums tX = X·1_k required by the subtraction-after-multiplication epilogue
// (Eq. 13). tX is produced by the preceding memory-bound kernel in QServe; we
// compute it at quantization time, which models the same fusion.
struct QuantizedActs {
  I8Tensor q;       // [m, k]
  Tensor s;         // [m] FP16 scales
  Tensor token_sum; // [m] tX, FP16 (sum over k of the *unquantized* input)

  int64_t m() const { return q.rows(); }
  int64_t k() const { return q.cols(); }
};

}  // namespace qserve
