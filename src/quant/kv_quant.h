// Dynamic per-head KV-cache quantization (§5.1, §6.1).
//
// QServe stores FP16 scale + zero point per head *inside each KV page*,
// updated on the fly (dynamic), in contrast to TRT-LLM/vLLM's offline
// per-tensor static scales. These routines quantize one head-vector (D dims)
// of K or V at a time, which is exactly the unit the paged cache stores.
#pragma once

#include <cstdint>

#include "common/check.h"
#include "common/half.h"
#include "common/math_util.h"

namespace qserve {

// Asymmetric quantization parameters for one head vector.
struct KvQuantParams {
  float scale = 1.0f;  // FP16
  float zero = 0.0f;   // FP16 (real-valued zero point: x ≈ q*scale + zero)
};

// Quantize `d` floats into `bits`-wide unsigned codes (4 or 8), emitted one
// code per byte; INT4 callers pack pairs with kv_pack_nibbles afterwards.
inline KvQuantParams kv_quantize(const float* x, int d, int bits,
                                 uint8_t* codes) {
  const int qmax = (1 << bits) - 1;
  float lo = x[0], hi = x[0];
  for (int i = 1; i < d; ++i) {
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
  float s = (hi - lo) / float(qmax);
  if (s <= 0.0f) s = 1.0f;
  s = to_half_precision(s);
  const float zero = to_half_precision(lo);
  const float inv = 1.0f / s;
  for (int i = 0; i < d; ++i) {
    codes[i] = static_cast<uint8_t>(
        clamp(round_half_away((x[i] - zero) * inv), 0, qmax));
  }
  return {s, zero};
}

inline void kv_dequantize(const uint8_t* codes, int d,
                          const KvQuantParams& p, float* out) {
  for (int i = 0; i < d; ++i) out[i] = float(codes[i]) * p.scale + p.zero;
}

// Nibble packing for INT4 pages: two codes per byte, even index in the low
// nibble. `d` must be even (the paged cache enforces an even head_dim).
inline void kv_pack_nibbles(const uint8_t* codes, int d, uint8_t* packed) {
  QS_DCHECK(d % 2 == 0);
  for (int i = 0; i < d; i += 2)
    packed[i >> 1] =
        static_cast<uint8_t>((codes[i] & 0xF) | (codes[i + 1] << 4));
}

}  // namespace qserve
