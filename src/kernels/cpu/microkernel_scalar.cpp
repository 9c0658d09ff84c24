// Scalar reference microkernel and row entries + the dispatch table.
//
// This file is compiled with auto-vectorization disabled (see CMakeLists) so
// that QSERVE_ISA=scalar measures a genuine one-MAC-at-a-time baseline and
// the bench regression numbers stay comparable across compiler versions.
#include <cmath>

#include "common/half.h"
#include "common/math_util.h"
#include "kernels/cpu/microkernel.h"
#include "tensor/tensor.h"

namespace qserve::cpu {

namespace {

// One token against one panel: the reference loop over k-groups. Kept out
// of line so the (token, panel) loops around it cannot crowd its registers.
template <typename W>
__attribute__((noinline)) void dot_scalar(const int8_t* x, const W* panel,
                                          int64_t kc, int nr, int32_t* acc) {
  for (int64_t g = 0; g < kc / kKGroup; ++g) {
    const int8_t* xg = x + g * kKGroup;
    const W* wg = panel + g * nr * kKGroup;
    for (int r = 0; r < nr; ++r) {
      int32_t s = acc[r];
      for (int j = 0; j < kKGroup; ++j)
        s += int32_t(xg[j]) * int32_t(wg[r * kKGroup + j]);
      acc[r] = s;
    }
  }
}

template <typename W>
void tile_scalar_impl(const TileArgs& a) {
  for (int t = 0; t < a.m; ++t)
    for (int p = 0; p < a.np; ++p)
      dot_scalar(a.x + t * a.x_stride,
                 reinterpret_cast<const W*>(a.w + p * a.w_stride), a.kc, a.nr,
                 a.acc + t * a.acc_stride + p * a.nr);
}

void tile_scalar(const TileArgs& a) {
  if (a.w_unsigned) {
    tile_scalar_impl<uint8_t>(a);
  } else {
    tile_scalar_impl<int8_t>(a);
  }
}

void quantize_row_scalar(const float* x, int64_t k, float qmax, int lo,
                         int hi, int8_t* q, float* scale, float* token_sum) {
  const float s = fp16_scale(abs_max(x, k), qmax);
  const float inv = 1.0f / s;
  float sum = 0.0f;
  for (int64_t c = 0; c < k; ++c) {
    q[c] = static_cast<int8_t>(clamp(round_half_away(x[c] * inv), lo, hi));
    sum += x[c];
  }
  *scale = s;
  *token_sum = row_half(sum);
}

void scale_row_scalar(const int32_t* acc, int64_t count, float sx,
                      float token_sum, const float* scale,
                      const float* zp_term, float* y) {
  for (int64_t i = 0; i < count; ++i) {
    float v = float(acc[i]) * sx * scale[i];
    if (zp_term) v = std::fma(-token_sum, zp_term[i], v);
    y[i] = row_half(v);
  }
}

constexpr Microkernel kScalarKernel = {
    Isa::kScalar,
    /*nr=*/8,  // shares the AVX2 panel layout so ISA flips stay compatible
    /*mr=*/4,
    /*np=*/4,
    /*bias_compensated=*/false,
    tile_scalar,
    quantize_row_scalar,
    scale_row_scalar,
};

}  // namespace

const Microkernel& microkernel_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      break;
    case Isa::kAvx2:
      if (const Microkernel* mk = avx2_microkernel()) return *mk;
      break;
    case Isa::kAvx512:
      if (const Microkernel* mk = avx512_microkernel()) return *mk;
      break;
  }
  return kScalarKernel;
}

}  // namespace qserve::cpu
