// AVX-512 VNNI microkernel: 16 output channels per panel, a register tile of
// up to 4 tokens x 4 panels (16 zmm accumulators). Per k-group it issues 4
// weight loads and 4 activation broadcasts, then 16 independent vpdpbusd
// (16 rows x 4 input channels = 64 MACs each), so each weight load feeds 4
// tokens and the accumulator chains hide vpdpbusd's latency.
//
// vpdpbusd multiplies unsigned bytes by signed bytes. The unsigned operand:
//  * UINT4 codes — the weight codes themselves (0..15), activations signed;
//  * signed codes — the activations, staged by the driver biased by +128
//    (x ^ 0x80), weights signed. The accumulator then holds
//    sum((x+128)*w) = sum(x*w) + 128*sum(w); the driver subtracts
//    128*row_sum(w) once per output (bias_compensated), which is exact in
//    two's-complement int32 for any operand values — including the -128
//    weight codes the naive-range overflow repro emits.
//
// The row entries run 16 floats per step with masked tails (see the row
// rules in microkernel.h).
#include "kernels/cpu/microkernel.h"

#if defined(__x86_64__) && defined(__GNUC__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "common/half.h"

namespace qserve::cpu {

namespace {

constexpr int kNr = 16;
constexpr int kMr = 4;
constexpr int kNp = 4;

#define QS_AVX512_TARGET \
  __attribute__((target("avx512f,avx512bw,avx512vnni")))

QS_AVX512_TARGET inline __m512i broadcast_group(const int8_t* x) {
  uint32_t word;
  std::memcpy(&word, x, sizeof(word));
  return _mm512_set1_epi32(static_cast<int>(word));
}

// One M x NP tile; kUnsigned selects which operand vpdpbusd treats as
// unsigned. The constant trip counts unroll fully, keeping c[][] in zmm.
template <int M, int NP, bool kUnsigned>
QS_AVX512_TARGET void tile_fixed(const TileArgs& a) {
  __m512i c[M][NP];
#pragma GCC unroll 4
  for (int t = 0; t < M; ++t)
#pragma GCC unroll 4
    for (int p = 0; p < NP; ++p)
      c[t][p] = _mm512_loadu_si512(a.acc + t * a.acc_stride + p * kNr);
  const int64_t groups = a.kc / kKGroup;
  for (int64_t g = 0; g < groups; ++g) {
    __m512i wv[NP];
#pragma GCC unroll 4
    for (int p = 0; p < NP; ++p)
      wv[p] = _mm512_loadu_si512(a.w + p * a.w_stride + g * kNr * kKGroup);
#pragma GCC unroll 4
    for (int t = 0; t < M; ++t) {
      const __m512i xb = broadcast_group(a.x + t * a.x_stride + g * kKGroup);
#pragma GCC unroll 4
      for (int p = 0; p < NP; ++p)
        c[t][p] = kUnsigned ? _mm512_dpbusd_epi32(c[t][p], wv[p], xb)
                            : _mm512_dpbusd_epi32(c[t][p], xb, wv[p]);
    }
  }
#pragma GCC unroll 4
  for (int t = 0; t < M; ++t)
#pragma GCC unroll 4
    for (int p = 0; p < NP; ++p)
      _mm512_storeu_si512(a.acc + t * a.acc_stride + p * kNr, c[t][p]);
}

using TileFn = void (*)(const TileArgs&);

// tile_fixed<m, np> for every m in [1, kMr], np in [1, kNp], at index
// (m - 1) * kNp + np - 1.
template <bool kUnsigned, int... I>
constexpr std::array<TileFn, sizeof...(I)> make_tiles(
    std::integer_sequence<int, I...>) {
  return {tile_fixed<I / kNp + 1, I % kNp + 1, kUnsigned>...};
}

constexpr auto kSignedTiles =
    make_tiles<false>(std::make_integer_sequence<int, kMr * kNp>{});
constexpr auto kUnsignedTiles =
    make_tiles<true>(std::make_integer_sequence<int, kMr * kNp>{});

void tile_avx512(const TileArgs& a) {
  const auto& tiles = a.w_unsigned ? kUnsignedTiles : kSignedTiles;
  tiles[static_cast<size_t>((a.m - 1) * kNp + a.np - 1)](a);
}

// Lanes [0, n) of a 16-lane step, n in [0, 16].
QS_AVX512_TARGET inline __mmask16 lanes(int64_t n) {
  return n >= 16 ? __mmask16(0xFFFF) : __mmask16((1u << n) - 1);
}

// round_half_away(v) clamped to [lo, hi]: floor(v + 0.5) where v >= 0
// (ordered, so NaN takes the ceil side), else ceil(v - 0.5), then the
// truncating conversion that maps NaN to INT_MIN as cvttss2si does.
QS_AVX512_TARGET inline __m512i round_clamp(__m512 v, __m512i lo,
                                            __m512i hi) {
  const __m512 half = _mm512_set1_ps(0.5f);
  const __m512 up = _mm512_roundscale_ps(_mm512_add_ps(v, half),
                                         _MM_FROUND_TO_NEG_INF);
  const __m512 down = _mm512_roundscale_ps(_mm512_sub_ps(v, half),
                                           _MM_FROUND_TO_POS_INF);
  const __mmask16 nonneg =
      _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_GE_OQ);
  const __m512i r = _mm512_cvttps_epi32(_mm512_mask_blend_ps(nonneg, down, up));
  return _mm512_min_epi32(_mm512_max_epi32(r, lo), hi);
}

QS_AVX512_TARGET void quantize_row_avx512(const float* x, int64_t k,
                                          float qmax, int lo, int hi,
                                          int8_t* q, float* scale,
                                          float* token_sum) {
  // max(a, m) returns m when a is NaN, so NaN never enters a lane.
  __m512 m = _mm512_setzero_ps();
  for (int64_t c = 0; c < k; c += 16)
    m = _mm512_max_ps(
        _mm512_abs_ps(_mm512_maskz_loadu_ps(lanes(k - c), x + c)), m);
  m = _mm512_max_ps(m, _mm512_shuffle_f32x4(m, m, 0x4E));  // swap halves
  m = _mm512_max_ps(m, _mm512_shuffle_f32x4(m, m, 0xB1));  // swap quarters
  __m128 m4 = _mm512_castps512_ps128(m);
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ss(m4, _mm_movehdup_ps(m4));
  const float s = fp16_scale(_mm_cvtss_f32(m4), qmax);
  const __m512 inv = _mm512_set1_ps(1.0f / s);
  const __m512i vlo = _mm512_set1_epi32(lo), vhi = _mm512_set1_epi32(hi);
  float sum = 0.0f;
  for (int64_t c = 0; c < k; c += 16) {
    const __mmask16 live = lanes(k - c);
    const __m512 v = _mm512_mul_ps(_mm512_maskz_loadu_ps(live, x + c), inv);
    _mm512_mask_cvtepi32_storeu_epi8(q + c, live, round_clamp(v, vlo, vhi));
    const int64_t end = std::min<int64_t>(c + 16, k);
    for (int64_t j = c; j < end; ++j) sum += x[j];
  }
  *scale = s;
  *token_sum = row_half(sum);
}

// row_half on 16 lanes: F16C round-to-nearest-even, every NaN lane kRowNan.
QS_AVX512_TARGET inline __m512 row_half16(__m512 v) {
  const __m512 r = _mm512_cvtph_ps(
      _mm512_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT));
  return _mm512_mask_blend_ps(_mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q), r,
                              _mm512_set1_ps(kRowNan));
}

QS_AVX512_TARGET void scale_row_avx512(const int32_t* acc, int64_t count,
                                       float sx, float token_sum,
                                       const float* scale,
                                       const float* zp_term, float* y) {
  const __m512 vsx = _mm512_set1_ps(sx), ts = _mm512_set1_ps(token_sum);
  for (int64_t i = 0; i < count; i += 16) {
    const __mmask16 live = lanes(count - i);
    __m512 v = _mm512_mul_ps(
        _mm512_mul_ps(
            _mm512_cvtepi32_ps(_mm512_maskz_loadu_epi32(live, acc + i)), vsx),
        _mm512_maskz_loadu_ps(live, scale + i));
    if (zp_term)
      v = _mm512_fnmadd_ps(ts, _mm512_maskz_loadu_ps(live, zp_term + i), v);
    _mm512_mask_storeu_ps(y + i, live, row_half16(v));
  }
}

#undef QS_AVX512_TARGET

constexpr Microkernel kAvx512Kernel = {
    Isa::kAvx512, kNr, kMr, kNp,
    /*bias_compensated=*/true,
    tile_avx512,
    quantize_row_avx512,
    scale_row_avx512,
};

}  // namespace

const Microkernel* avx512_microkernel() { return &kAvx512Kernel; }

}  // namespace qserve::cpu

#else  // non-x86 or non-GNU toolchain: AVX-512 path compiled out.

namespace qserve::cpu {
const Microkernel* avx512_microkernel() { return nullptr; }
}  // namespace qserve::cpu

#endif
