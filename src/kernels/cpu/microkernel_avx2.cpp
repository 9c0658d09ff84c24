// AVX2 microkernel: 8 output channels per panel, a register tile of up to
// 2 tokens x 2 panels. Each 32-byte weight load per k-group (8 rows x 4
// input channels) is widened once and feeds both tokens; each activation
// broadcast feeds both panels. Signed codes hold two ymm partial
// accumulators per (token, panel) — 8 of the 16 ymm registers, plus 4
// widened weight halves — which is what bounds the tile.
//
// Compiled via function-level target attributes so the translation unit
// builds regardless of -march; the dispatch in isa.cpp guarantees these are
// only called on hosts that support AVX2.
#include "kernels/cpu/microkernel.h"

#if defined(__x86_64__) && defined(__GNUC__)

#include <immintrin.h>

#include <array>
#include <cstring>
#include <utility>

namespace qserve::cpu {

namespace {

constexpr int kNr = 8;
constexpr int kMr = 2;
constexpr int kNp = 2;

#define QS_AVX2_TARGET __attribute__((target("avx2")))

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

#undef QS_AVX2_TARGET

constexpr Microkernel kAvx2Kernel = {
    Isa::kAvx2, kNr, kMr, kNp,
    /*bias_compensated=*/false,
    tile_avx2,
};

}  // namespace

const Microkernel* avx2_microkernel() { return &kAvx2Kernel; }

}  // namespace qserve::cpu

#else  // non-x86 or non-GNU toolchain: AVX2 path compiled out.

namespace qserve::cpu {
const Microkernel* avx2_microkernel() { return nullptr; }
}  // namespace qserve::cpu

#endif
