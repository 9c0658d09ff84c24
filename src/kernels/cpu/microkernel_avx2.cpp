// AVX2 microkernel: 8 output channels per panel, a register tile of up to
// 2 tokens x 2 panels. Each 32-byte weight load per k-group (8 rows x 4
// input channels) is widened once and feeds both tokens; each activation
// broadcast feeds both panels. Signed codes hold two ymm partial
// accumulators per (token, panel) — 8 of the 16 ymm registers, plus 4
// widened weight halves — which is what bounds the tile.
//
// The row entries run 8 floats per step with masked tails (see the row rules
// in microkernel.h); they also use FMA and F16C.
//
// Compiled via function-level target attributes so the translation unit
// builds regardless of -march; the dispatch in isa.cpp guarantees these are
// only called on hosts that support AVX2 and FMA.
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

constexpr int kNr = 8;
constexpr int kMr = 2;
constexpr int kNp = 2;

#define QS_AVX2_TARGET __attribute__((target("avx2,fma,f16c")))

QS_AVX2_TARGET inline __m256i broadcast_group(const int8_t* x) {
  uint32_t word;
  std::memcpy(&word, x, sizeof(word));
  return _mm256_set1_epi32(static_cast<int>(word));
}

// Signed weights: widen both operands to int16 and vpmaddwd. Exact for the
// full int8 x int8 range (products <= 2^14, pair sums <= 2^15 — far inside
// int32), unlike vpmaddubsw sign-splitting which breaks on -128 operands.
// Accumulates in "two partial int32 lanes per row" form and folds the pairs
// after the k loop; integer adds commute, so this is still the scalar
// accumulator bit for bit.
template <int M, int NP>
QS_AVX2_TARGET void tile_s8(const TileArgs& a) {
  __m256i lo[M][NP], hi[M][NP];  // rows 0-3 / rows 4-7 of each panel
#pragma GCC unroll 4
  for (int t = 0; t < M; ++t)
#pragma GCC unroll 4
    for (int p = 0; p < NP; ++p) lo[t][p] = hi[t][p] = _mm256_setzero_si256();
  const int64_t groups = a.kc / kKGroup;
  for (int64_t g = 0; g < groups; ++g) {
    __m256i w_lo[NP], w_hi[NP];
#pragma GCC unroll 4
    for (int p = 0; p < NP; ++p) {
      const __m256i wv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          a.w + p * a.w_stride + g * kNr * kKGroup));
      w_lo[p] = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(wv));
      w_hi[p] = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(wv, 1));
    }
#pragma GCC unroll 4
    for (int t = 0; t < M; ++t) {
      // {x0,x1,x2,x3} sign-extended to 16 bits, repeated four times.
      const __m256i x16 = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(
          broadcast_group(a.x + t * a.x_stride + g * kKGroup)));
#pragma GCC unroll 4
      for (int p = 0; p < NP; ++p) {
        lo[t][p] = _mm256_add_epi32(lo[t][p], _mm256_madd_epi16(w_lo[p], x16));
        hi[t][p] = _mm256_add_epi32(hi[t][p], _mm256_madd_epi16(w_hi[p], x16));
      }
    }
  }
  // lo = [r0a r0b r1a r1b | r2a r2b r3a r3b], hi likewise for rows 4-7.
  // hadd folds pairs per 128-bit half: [r0 r1 r4 r5 | r2 r3 r6 r7].
  const __m256i order = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
#pragma GCC unroll 4
  for (int t = 0; t < M; ++t)
#pragma GCC unroll 4
    for (int p = 0; p < NP; ++p) {
      __m256i* acc =
          reinterpret_cast<__m256i*>(a.acc + t * a.acc_stride + p * kNr);
      const __m256i rows = _mm256_permutevar8x32_epi32(
          _mm256_hadd_epi32(lo[t][p], hi[t][p]), order);
      _mm256_storeu_si256(acc,
                          _mm256_add_epi32(_mm256_loadu_si256(acc), rows));
    }
}

// Unsigned UINT4 codes (0..15): vpmaddubsw(w, x) is exact — byte products
// are at most 15*128, so the int16 pair sums never saturate.
template <int M, int NP>
QS_AVX2_TARGET void tile_u4(const TileArgs& a) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i c[M][NP];
#pragma GCC unroll 4
  for (int t = 0; t < M; ++t)
#pragma GCC unroll 4
    for (int p = 0; p < NP; ++p)
      c[t][p] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(a.acc + t * a.acc_stride + p * kNr));
  const int64_t groups = a.kc / kKGroup;
  for (int64_t g = 0; g < groups; ++g) {
    __m256i wv[NP];
#pragma GCC unroll 4
    for (int p = 0; p < NP; ++p)
      wv[p] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          a.w + p * a.w_stride + g * kNr * kKGroup));
#pragma GCC unroll 4
    for (int t = 0; t < M; ++t) {
      const __m256i xb = broadcast_group(a.x + t * a.x_stride + g * kKGroup);
#pragma GCC unroll 4
      for (int p = 0; p < NP; ++p)
        c[t][p] = _mm256_add_epi32(
            c[t][p], _mm256_madd_epi16(_mm256_maddubs_epi16(wv[p], xb), ones));
    }
  }
#pragma GCC unroll 4
  for (int t = 0; t < M; ++t)
#pragma GCC unroll 4
    for (int p = 0; p < NP; ++p)
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(a.acc + t * a.acc_stride + p * kNr),
          c[t][p]);
}

using TileFn = void (*)(const TileArgs&);

// tile<m, np> for every m in [1, kMr], np in [1, kNp], at index
// (m - 1) * kNp + np - 1.
template <int... I>
constexpr std::array<TileFn, sizeof...(I)> make_s8_tiles(
    std::integer_sequence<int, I...>) {
  return {tile_s8<I / kNp + 1, I % kNp + 1>...};
}
template <int... I>
constexpr std::array<TileFn, sizeof...(I)> make_u4_tiles(
    std::integer_sequence<int, I...>) {
  return {tile_u4<I / kNp + 1, I % kNp + 1>...};
}

constexpr auto kSignedTiles =
    make_s8_tiles(std::make_integer_sequence<int, kMr * kNp>{});
constexpr auto kUnsignedTiles =
    make_u4_tiles(std::make_integer_sequence<int, kMr * kNp>{});

void tile_avx2(const TileArgs& a) {
  const auto& tiles = a.w_unsigned ? kUnsignedTiles : kSignedTiles;
  tiles[static_cast<size_t>((a.m - 1) * kNp + a.np - 1)](a);
}

// All-ones in lanes [0, n) of an 8-lane step, n in [0, 8].
QS_AVX2_TARGET inline __m256i lanes(int64_t n) {
  return _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(std::min<int64_t>(n, 8))),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// round_half_away(v) clamped to [lo, hi]: floor(v + 0.5) where v >= 0
// (ordered, so NaN takes the ceil side), else ceil(v - 0.5), then the
// truncating conversion that maps NaN to INT_MIN as cvttss2si does.
QS_AVX2_TARGET inline __m256i round_clamp(__m256 v, __m256i lo, __m256i hi) {
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 up = _mm256_floor_ps(_mm256_add_ps(v, half));
  const __m256 down = _mm256_ceil_ps(_mm256_sub_ps(v, half));
  const __m256 nonneg = _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GE_OQ);
  const __m256i r = _mm256_cvttps_epi32(_mm256_blendv_ps(down, up, nonneg));
  return _mm256_min_epi32(_mm256_max_epi32(r, lo), hi);
}

QS_AVX2_TARGET void quantize_row_avx2(const float* x, int64_t k, float qmax,
                                      int lo, int hi, int8_t* q, float* scale,
                                      float* token_sum) {
  // max(a, m) returns m when a is NaN, so NaN never enters a lane.
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  __m256 m = _mm256_setzero_ps();
  for (int64_t c = 0; c < k; c += 8)
    m = _mm256_max_ps(
        _mm256_and_ps(_mm256_maskload_ps(x + c, lanes(k - c)), abs_mask), m);
  __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(m),
                         _mm256_extractf128_ps(m, 1));
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ss(m4, _mm_movehdup_ps(m4));
  const float s = fp16_scale(_mm_cvtss_f32(m4), qmax);
  const __m256 inv = _mm256_set1_ps(1.0f / s);
  const __m256i vlo = _mm256_set1_epi32(lo), vhi = _mm256_set1_epi32(hi);
  float sum = 0.0f;
  for (int64_t c = 0; c < k; c += 8) {
    const __m256 v = _mm256_mul_ps(_mm256_maskload_ps(x + c, lanes(k - c)),
                                   inv);
    const __m256i r = round_clamp(v, vlo, vhi);
    const __m128i r16 = _mm_packs_epi32(_mm256_castsi256_si128(r),
                                        _mm256_extracti128_si256(r, 1));
    const __m128i r8 = _mm_packs_epi16(r16, r16);
    const int64_t end = std::min<int64_t>(c + 8, k);
    if (end - c == 8) {
      _mm_storel_epi64(reinterpret_cast<__m128i*>(q + c), r8);
    } else {
      int8_t tail[16];
      _mm_storeu_si128(reinterpret_cast<__m128i*>(tail), r8);
      std::memcpy(q + c, tail, static_cast<size_t>(end - c));
    }
    for (int64_t j = c; j < end; ++j) sum += x[j];
  }
  *scale = s;
  *token_sum = row_half(sum);
}

// row_half on 8 lanes: F16C round-to-nearest-even, every NaN lane kRowNan.
QS_AVX2_TARGET inline __m256 row_half8(__m256 v) {
  const __m256 r = _mm256_cvtph_ps(
      _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT));
  return _mm256_blendv_ps(r, _mm256_set1_ps(kRowNan),
                          _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
}

QS_AVX2_TARGET void scale_row_avx2(const int32_t* acc, int64_t count,
                                   float sx, float token_sum,
                                   const float* scale, const float* zp_term,
                                   float* y) {
  const __m256 vsx = _mm256_set1_ps(sx), ts = _mm256_set1_ps(token_sum);
  for (int64_t i = 0; i < count; i += 8) {
    const __m256i live = lanes(count - i);
    __m256 v = _mm256_mul_ps(
        _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_maskload_epi32(acc + i, live)),
                      vsx),
        _mm256_maskload_ps(scale + i, live));
    if (zp_term)
      v = _mm256_fnmadd_ps(ts, _mm256_maskload_ps(zp_term + i, live), v);
    _mm256_maskstore_ps(y + i, live, row_half8(v));
  }
}

#undef QS_AVX2_TARGET

constexpr Microkernel kAvx2Kernel = {
    Isa::kAvx2, kNr, kMr, kNp,
    /*bias_compensated=*/false,
    tile_avx2,
    quantize_row_avx2,
    scale_row_avx2,
};

}  // namespace

const Microkernel* avx2_microkernel() { return &kAvx2Kernel; }

}  // namespace qserve::cpu

#else  // non-x86 or non-GNU toolchain: AVX2 path compiled out.

namespace qserve::cpu {
const Microkernel* avx2_microkernel() { return nullptr; }
}  // namespace qserve::cpu

#endif
