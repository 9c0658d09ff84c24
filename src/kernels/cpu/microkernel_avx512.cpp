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
#include "kernels/cpu/microkernel.h"

#if defined(__x86_64__) && defined(__GNUC__)

#include <immintrin.h>

#include <array>
#include <cstring>
#include <utility>

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

#undef QS_AVX512_TARGET

constexpr Microkernel kAvx512Kernel = {
    Isa::kAvx512, kNr, kMr, kNp,
    /*bias_compensated=*/true,
    tile_avx512,
};

}  // namespace

const Microkernel* avx512_microkernel() { return &kAvx512Kernel; }

}  // namespace qserve::cpu

#else  // non-x86 or non-GNU toolchain: AVX-512 path compiled out.

namespace qserve::cpu {
const Microkernel* avx512_microkernel() { return nullptr; }
}  // namespace qserve::cpu

#endif
