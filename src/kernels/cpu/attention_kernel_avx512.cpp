// AVX-512 attention kernels: dequant decodes 16 KV elements per __m512, and
// one __m512 accumulator holds the 16 virtual lanes of the canonical QK
// reduction order (attention_kernel.h) directly. QK walks 16 tokens at once
// and folds their accumulators with in-register shuffles that add the same
// lane pairs as fold_qk_lanes; SV keeps the output slices in registers
// across the tile. Both reproduce the scalar reference bit for bit. Float
// math is mul_ps/add_ps only — never fmadd — to keep roundings identical to
// the contraction-free scalar TU.
//
// Compiled via function-level target attributes so the TU builds regardless
// of -march; dispatch guarantees these run only on AVX-512F hosts.
#include "kernels/cpu/attention_kernel.h"

#if defined(__x86_64__) && defined(__GNUC__)

#include <immintrin.h>

#include "kernels/cpu/attention_kernel_inline.h"

namespace qserve::cpu {

namespace {

using attn_inline::run_element;
using attn_inline::token_params;
using attn_inline::with_kind;

#define QS_AVX512_TARGET __attribute__((target("avx512f")))

// 16 dequantized elements [d, d+16) of one token, one per lane.
template <KvRunKind K>
QS_AVX512_TARGET inline __m512 load16(const uint8_t* ct, const uint16_t* ht,
                                      const float* ft, int d, __m512 vs,
                                      __m512 vz) {
  if constexpr (K == KvRunKind::kF32) {
    return _mm512_loadu_ps(ft + d);
  } else if constexpr (K == KvRunKind::kFp16) {
    // Exact conversion; stored halves are never signalling NaNs
    // (float_to_half_bits quiets them), so vcvtph2ps matches
    // detail::half_bits_to_float bit for bit.
    return _mm512_cvtph_ps(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ht + d)));
  } else if constexpr (K == KvRunKind::kInt8Dyn) {
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ct + d));
    const __m512 f = _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(b));
    return _mm512_add_ps(_mm512_mul_ps(f, vs), vz);
  } else {  // kInt4Dyn: 8 bytes hold the 16 nibble-packed codes
    const __m128i b =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(ct + (d >> 1)));
    const __m128i mask = _mm_set1_epi8(0x0F);
    const __m128i even = _mm_and_si128(b, mask);                    // low nibbles
    const __m128i odd = _mm_and_si128(_mm_srli_epi16(b, 4), mask);  // high
    const __m128i codes = _mm_unpacklo_epi8(even, odd);  // element order
    const __m512 f = _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(codes));
    return _mm512_add_ps(_mm512_mul_ps(f, vs), vz);
  }
}

template <KvRunKind K>
QS_AVX512_TARGET void dequant_avx512_t(const KvHeadRun& run, int64_t t0,
                                       int64_t n, int head_dim, float* dst) {
  const int blocks = head_dim & ~(kQkLanes - 1);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t t = t0 + i;
    const uint8_t* ct = run.codes ? run.codes + t * run.stride : nullptr;
    const uint16_t* ht =
        run.half_bits ? run.half_bits + t * run.stride : nullptr;
    const float* ft = run.f32 ? run.f32 + t * run.stride : nullptr;
    const auto p = token_params<K>(run, t);
    const __m512 vs = _mm512_set1_ps(p.scale);
    const __m512 vz = _mm512_set1_ps(p.zero);
    float* row = dst + i * head_dim;
    for (int d = 0; d < blocks; d += kQkLanes)
      _mm512_storeu_ps(row + d, load16<K>(ct, ht, ft, d, vs, vz));
    for (int d = blocks; d < head_dim; ++d)
      row[d] = run_element<K>(ct, ht, ft, d, p.scale, p.zero);
  }
}

void dequant_avx512(const KvHeadRun& run, int64_t t0, int64_t n,
                    int head_dim, float* dst) {
  with_kind(run.kind, [&](auto kind) {
    dequant_avx512_t<decltype(kind)::value>(run, t0, n, head_dim, dst);
  });
}

// Folds the 16-lane accumulators of 16 tokens at once: each step adds the
// same lane pairs as fold_qk_lanes (l + 8, then + 4, + 2, + 1), two, four,
// eight and then sixteen tokens per instruction, so the dots are the scalar
// fold's bit for bit. Returns the 16 dots in token order.
QS_AVX512_TARGET inline __m512 fold16_tokens(const __m512* acc) {
  __m512 s8[8], s4[4], s2[2];
#pragma GCC unroll 8
  for (int j = 0; j < 8; ++j)  // [lanes 0-7 of token 2j | of token 2j+1]
    s8[j] = _mm512_add_ps(
        _mm512_shuffle_f32x4(acc[2 * j], acc[2 * j + 1], 0x44),
        _mm512_shuffle_f32x4(acc[2 * j], acc[2 * j + 1], 0xEE));
#pragma GCC unroll 4
  for (int j = 0; j < 4; ++j)  // 4 lanes each of tokens 4j .. 4j+3
    s4[j] = _mm512_add_ps(_mm512_shuffle_f32x4(s8[2 * j], s8[2 * j + 1], 0x88),
                          _mm512_shuffle_f32x4(s8[2 * j], s8[2 * j + 1], 0xDD));
#pragma GCC unroll 2
  for (int j = 0; j < 2; ++j)  // 128-bit lane i: tokens 8j+i, 8j+i+4
    s2[j] = _mm512_add_ps(_mm512_shuffle_ps(s4[2 * j], s4[2 * j + 1], 0x44),
                          _mm512_shuffle_ps(s4[2 * j], s4[2 * j + 1], 0xEE));
  // 128-bit lane i: tokens i, i + 4, i + 8, i + 12.
  const __m512 s1 = _mm512_add_ps(_mm512_shuffle_ps(s2[0], s2[1], 0x88),
                                  _mm512_shuffle_ps(s2[0], s2[1], 0xDD));
  const __m512i order = _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10,
                                          14, 3, 7, 11, 15);
  return _mm512_permutexvar_ps(order, s1);
}

QS_AVX512_TARGET void qk_dot_avx512(const float* q, const float* k, int64_t n,
                                    int head_dim, float* dots) {
  const int blocks = head_dim & ~(kQkLanes - 1);
  int64_t t = 0;
  // Sixteen tokens at a time when there is no lane tail: their lane walks
  // interleave, and one transposing fold replaces sixteen scalar ones.
  if (blocks == head_dim) {
    for (; t + kQkLanes <= n; t += kQkLanes) {
      const float* kt = k + t * head_dim;
      __m512 acc[kQkLanes];
#pragma GCC unroll 16
      for (int j = 0; j < kQkLanes; ++j) acc[j] = _mm512_setzero_ps();
      for (int d = 0; d < blocks; d += kQkLanes) {
        const __m512 qd = _mm512_loadu_ps(q + d);
#pragma GCC unroll 16
        for (int j = 0; j < kQkLanes; ++j)
          acc[j] = _mm512_add_ps(
              acc[j],
              _mm512_mul_ps(qd, _mm512_loadu_ps(kt + j * head_dim + d)));
      }
      _mm512_storeu_ps(dots + t, fold16_tokens(acc));
    }
  }
  for (; t < n; ++t) {
    const float* kt = k + t * head_dim;
    __m512 acc = _mm512_setzero_ps();
    for (int d = 0; d < blocks; d += kQkLanes)
      acc = _mm512_add_ps(
          acc, _mm512_mul_ps(_mm512_loadu_ps(q + d), _mm512_loadu_ps(kt + d)));
    float lanes[kQkLanes];
    _mm512_storeu_ps(lanes, acc);
    // Tail elements continue the same lane walk the scalar kernel performs.
    for (int d = blocks; d < head_dim; ++d)
      lanes[d & (kQkLanes - 1)] += q[d] * kt[d];
    dots[t] = fold_qk_lanes(lanes);
  }
}

// out[d0, d0 + 16 * NB) += p[t] * v_t[d0, ...) for every token: the NB
// slices of `out` stay in registers across the token walk, and each
// element's chain is still token-sequential. (The unroll pragmas are what
// keep acc[] in registers at -O2.)
template <int NB>
QS_AVX512_TARGET inline void sv_slices(const float* p, const float* v,
                                       int64_t n, int head_dim, float* out) {
  __m512 acc[NB];
#pragma GCC unroll 4
  for (int b = 0; b < NB; ++b) acc[b] = _mm512_loadu_ps(out + b * kQkLanes);
  for (int64_t t = 0; t < n; ++t) {
    const float* vt = v + t * head_dim;
    const __m512 vp = _mm512_set1_ps(p[t]);
#pragma GCC unroll 4
    for (int b = 0; b < NB; ++b)
      acc[b] = _mm512_add_ps(
          acc[b], _mm512_mul_ps(vp, _mm512_loadu_ps(vt + b * kQkLanes)));
  }
#pragma GCC unroll 4
  for (int b = 0; b < NB; ++b) _mm512_storeu_ps(out + b * kQkLanes, acc[b]);
}

QS_AVX512_TARGET void sv_accum_avx512(const float* p, const float* v,
                                      int64_t n, int head_dim, float* out) {
  const int blocks = head_dim & ~(kQkLanes - 1);
  int d = 0;
  for (; d + 4 * kQkLanes <= blocks; d += 4 * kQkLanes)
    sv_slices<4>(p, v + d, n, head_dim, out + d);
  for (; d < blocks; d += kQkLanes)
    sv_slices<1>(p, v + d, n, head_dim, out + d);
  for (; d < head_dim; ++d)
    for (int64_t t = 0; t < n; ++t) out[d] += p[t] * v[t * head_dim + d];
}

#undef QS_AVX512_TARGET

constexpr AttentionKernels kAvx512AttentionKernels = {
    Isa::kAvx512,
    dequant_avx512,
    qk_dot_avx512,
    sv_accum_avx512,
};

}  // namespace

const AttentionKernels* avx512_attention_kernel() {
  return &kAvx512AttentionKernels;
}

}  // namespace qserve::cpu

#else  // non-x86 or non-GNU toolchain: AVX-512 path compiled out.

namespace qserve::cpu {
const AttentionKernels* avx512_attention_kernel() { return nullptr; }
}  // namespace qserve::cpu

#endif
