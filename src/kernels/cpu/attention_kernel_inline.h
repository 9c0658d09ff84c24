// Internal helpers shared by the attention kernel TUs (scalar/AVX2/AVX-512).
//
// Include ONLY from src/kernels/cpu/attention_kernel_*.cpp: the dequantize
// helpers here are mul-then-add chains whose roundings are part of the
// cross-ISA numerics contract, and those TUs are the ones CMake compiles
// with -ffp-contract=off (a TU built with contraction enabled could fuse
// `float(c) * scale + zero` into an FMA and break bitwise identity).
#pragma once

#include <cstdint>
#include <type_traits>

#include "common/half.h"
#include "kernels/cpu/attention_kernel.h"

namespace qserve::cpu::attn_inline {

// Per-token dequant parameters: the quantized kinds read the in-page FP16
// scale/zero pair, and the float kinds need none.
struct TokenParams {
  float scale = 0.0f;
  float zero = 0.0f;
};

template <KvRunKind K>
inline TokenParams token_params(const KvHeadRun& run, int64_t t) {
  if constexpr (K == KvRunKind::kInt8Dyn || K == KvRunKind::kInt4Dyn) {
    const uint16_t* p = run.params + t * run.param_stride;
    return {detail::half_bits_to_float(p[0]),
            detail::half_bits_to_float(p[1])};
  } else {
    (void)run;
    (void)t;
    return {};
  }
}

// Dequantized element d of one token, given that token's base pointers —
// the scalar reference every vector kernel's tail must reproduce exactly.
template <KvRunKind K>
inline float run_element(const uint8_t* codes_t, const uint16_t* half_t,
                         const float* f32_t, int d, float scale, float zero) {
  if constexpr (K == KvRunKind::kF32) {
    return f32_t[d];
  } else if constexpr (K == KvRunKind::kFp16) {
    return detail::half_bits_to_float(half_t[d]);
  } else if constexpr (K == KvRunKind::kInt8Dyn) {
    return float(codes_t[d]) * scale + zero;
  } else {  // kInt4Dyn: two codes per byte, even index in the low nibble
    const uint8_t c = (codes_t[d >> 1] >> ((d & 1) * 4)) & 0xF;
    return float(c) * scale + zero;
  }
}

// The one switch over the storage form: calls fn(kind tag) with
// std::integral_constant<KvRunKind, K> for the run's K, so each ISA's
// dequant instantiates its per-form template once per form.
template <typename Fn>
inline void with_kind(KvRunKind kind, Fn&& fn) {
  using K = KvRunKind;
  switch (kind) {
    case K::kF32: return fn(std::integral_constant<K, K::kF32>{});
    case K::kFp16: return fn(std::integral_constant<K, K::kFp16>{});
    case K::kInt8Dyn: return fn(std::integral_constant<K, K::kInt8Dyn>{});
    case K::kInt4Dyn: return fn(std::integral_constant<K, K::kInt4Dyn>{});
  }
}

}  // namespace qserve::cpu::attn_inline
