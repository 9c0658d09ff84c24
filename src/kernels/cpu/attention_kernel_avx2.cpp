// AVX2 attention kernels: dequant decodes 16 KV elements per step into two
// __m256 halves, and the QK dot holds 16 elements per step in two __m256
// accumulators — exactly the 16 virtual lanes of the canonical QK reduction
// order (attention_kernel.h), so the vector code IS the reference order.
// All float math is mul_ps/add_ps (never fmadd), matching the
// contraction-free scalar kernel rounding for rounding.
//
// Compiled via function-level target attributes so the TU builds regardless
// of -march; dispatch guarantees these run only on AVX2+F16C hosts.
#include "kernels/cpu/attention_kernel.h"

#if defined(__x86_64__) && defined(__GNUC__)

#include <immintrin.h>

#include "kernels/cpu/attention_kernel_inline.h"

namespace qserve::cpu {

namespace {

using attn_inline::run_element;
using attn_inline::token_params;
using attn_inline::with_kind;

#define QS_AVX2_TARGET __attribute__((target("avx2,f16c")))

// 16 dequantized elements [d, d+16) of one token: lanes 0-7 in `lo`,
// lanes 8-15 in `hi`.
struct Dequant16 {
  __m256 lo, hi;
};

template <KvRunKind K>
QS_AVX2_TARGET inline Dequant16 load16(const uint8_t* ct, const uint16_t* ht,
                                       const float* ft, int d, __m256 vs,
                                       __m256 vz) {
  if constexpr (K == KvRunKind::kF32) {
    return {_mm256_loadu_ps(ft + d), _mm256_loadu_ps(ft + d + 8)};
  } else if constexpr (K == KvRunKind::kFp16) {
    // Half -> float is exact, and the stored halves are never signalling
    // NaNs (float_to_half_bits quiets them), so vcvtph2ps reproduces
    // detail::half_bits_to_float bit for bit.
    const __m128i h0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ht + d));
    const __m128i h1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ht + d + 8));
    return {_mm256_cvtph_ps(h0), _mm256_cvtph_ps(h1)};
  } else if constexpr (K == KvRunKind::kInt8Dyn) {
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ct + d));
    const __m256 f0 = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(b));
    const __m256 f1 =
        _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_srli_si128(b, 8)));
    return {_mm256_add_ps(_mm256_mul_ps(f0, vs), vz),
            _mm256_add_ps(_mm256_mul_ps(f1, vs), vz)};
  } else {  // kInt4Dyn: 8 bytes hold the 16 nibble-packed codes
    const __m128i b = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(ct + (d >> 1)));
    const __m128i mask = _mm_set1_epi8(0x0F);
    const __m128i even = _mm_and_si128(b, mask);                     // low nibbles
    const __m128i odd = _mm_and_si128(_mm_srli_epi16(b, 4), mask);   // high
    const __m128i codes = _mm_unpacklo_epi8(even, odd);  // element order
    const __m256 f0 = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(codes));
    const __m256 f1 =
        _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_srli_si128(codes, 8)));
    return {_mm256_add_ps(_mm256_mul_ps(f0, vs), vz),
            _mm256_add_ps(_mm256_mul_ps(f1, vs), vz)};
  }
}

template <KvRunKind K>
QS_AVX2_TARGET void dequant_avx2_t(const KvHeadRun& run, int64_t t0,
                                   int64_t n, int head_dim, float* dst) {
  const int blocks = head_dim & ~(kQkLanes - 1);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t t = t0 + i;
    const uint8_t* ct = run.codes ? run.codes + t * run.stride : nullptr;
    const uint16_t* ht =
        run.half_bits ? run.half_bits + t * run.stride : nullptr;
    const float* ft = run.f32 ? run.f32 + t * run.stride : nullptr;
    const auto p = token_params<K>(run, t);
    const __m256 vs = _mm256_set1_ps(p.scale);
    const __m256 vz = _mm256_set1_ps(p.zero);
    float* row = dst + i * head_dim;
    for (int d = 0; d < blocks; d += kQkLanes) {
      const Dequant16 kv = load16<K>(ct, ht, ft, d, vs, vz);
      _mm256_storeu_ps(row + d, kv.lo);
      _mm256_storeu_ps(row + d + 8, kv.hi);
    }
    for (int d = blocks; d < head_dim; ++d)
      row[d] = run_element<K>(ct, ht, ft, d, p.scale, p.zero);
  }
}

void dequant_avx2(const KvHeadRun& run, int64_t t0, int64_t n,
                  int head_dim, float* dst) {
  with_kind(run.kind, [&](auto kind) {
    dequant_avx2_t<decltype(kind)::value>(run, t0, n, head_dim, dst);
  });
}

QS_AVX2_TARGET void qk_dot_avx2(const float* q, const float* k, int64_t n,
                                int head_dim, float* dots) {
  const int blocks = head_dim & ~(kQkLanes - 1);
  for (int64_t t = 0; t < n; ++t) {
    const float* kt = k + t * head_dim;
    __m256 acc_lo = _mm256_setzero_ps();
    __m256 acc_hi = _mm256_setzero_ps();
    for (int d = 0; d < blocks; d += kQkLanes) {
      acc_lo = _mm256_add_ps(
          acc_lo,
          _mm256_mul_ps(_mm256_loadu_ps(q + d), _mm256_loadu_ps(kt + d)));
      acc_hi = _mm256_add_ps(
          acc_hi, _mm256_mul_ps(_mm256_loadu_ps(q + d + 8),
                                _mm256_loadu_ps(kt + d + 8)));
    }
    float lanes[kQkLanes];
    _mm256_storeu_ps(lanes, acc_lo);
    _mm256_storeu_ps(lanes + 8, acc_hi);
    // Tail elements continue the same lane walk the scalar kernel performs.
    for (int d = blocks; d < head_dim; ++d)
      lanes[d & (kQkLanes - 1)] += q[d] * kt[d];
    dots[t] = fold_qk_lanes(lanes);
  }
}

QS_AVX2_TARGET void sv_accum_avx2(const float* p, const float* v, int64_t n,
                                  int head_dim, float* out) {
  const int blocks = head_dim & ~(kQkLanes - 1);
  for (int64_t t = 0; t < n; ++t) {
    const float* vt = v + t * head_dim;
    const __m256 vp = _mm256_set1_ps(p[t]);
    for (int d = 0; d < blocks; d += kQkLanes) {
      const __m256 v0 = _mm256_mul_ps(vp, _mm256_loadu_ps(vt + d));
      const __m256 v1 = _mm256_mul_ps(vp, _mm256_loadu_ps(vt + d + 8));
      _mm256_storeu_ps(out + d, _mm256_add_ps(_mm256_loadu_ps(out + d), v0));
      _mm256_storeu_ps(out + d + 8,
                       _mm256_add_ps(_mm256_loadu_ps(out + d + 8), v1));
    }
    for (int d = blocks; d < head_dim; ++d) out[d] += p[t] * vt[d];
  }
}

#undef QS_AVX2_TARGET

constexpr AttentionKernels kAvx2AttentionKernels = {
    Isa::kAvx2,
    dequant_avx2,
    qk_dot_avx2,
    sv_accum_avx2,
};

}  // namespace

const AttentionKernels* avx2_attention_kernel() {
  return &kAvx2AttentionKernels;
}

}  // namespace qserve::cpu

#else  // non-x86 or non-GNU toolchain: AVX2 path compiled out.

namespace qserve::cpu {
const AttentionKernels* avx2_attention_kernel() { return nullptr; }
}  // namespace qserve::cpu

#endif
