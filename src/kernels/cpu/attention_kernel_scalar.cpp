// Scalar reference attention kernels + the dispatch table.
//
// Like microkernel_scalar.cpp, this file is compiled with auto-vectorization
// disabled (and -ffp-contract=off, see CMakeLists) so QSERVE_ISA=scalar
// measures a genuine one-MAC-at-a-time baseline whose roundings match the
// vector kernels' mul-then-add sequences exactly.
#include "kernels/cpu/attention_kernel.h"

#include "kernels/cpu/attention_kernel_inline.h"

namespace qserve::cpu {

namespace {

using attn_inline::run_element;
using attn_inline::token_params;
using attn_inline::with_kind;

template <KvRunKind K>
void dequant_scalar_t(const KvHeadRun& run, int64_t t0, int64_t n,
                      int head_dim, float* dst) {
  for (int64_t i = 0; i < n; ++i) {
    const int64_t t = t0 + i;
    const uint8_t* ct = run.codes ? run.codes + t * run.stride : nullptr;
    const uint16_t* ht =
        run.half_bits ? run.half_bits + t * run.stride : nullptr;
    const float* ft = run.f32 ? run.f32 + t * run.stride : nullptr;
    const auto p = token_params<K>(run, t);
    for (int d = 0; d < head_dim; ++d)
      dst[i * head_dim + d] = run_element<K>(ct, ht, ft, d, p.scale, p.zero);
  }
}

void dequant_scalar(const KvHeadRun& run, int64_t t0, int64_t n,
                    int head_dim, float* dst) {
  with_kind(run.kind, [&](auto kind) {
    dequant_scalar_t<decltype(kind)::value>(run, t0, n, head_dim, dst);
  });
}

void qk_dot_scalar(const float* q, const float* k, int64_t n, int head_dim,
                   float* dots) {
  for (int64_t t = 0; t < n; ++t) {
    const float* kt = k + t * head_dim;
    // The canonical 16-lane accumulation: lane d & 15, increasing d.
    float lanes[kQkLanes] = {};
    for (int d = 0; d < head_dim; ++d)
      lanes[d & (kQkLanes - 1)] += q[d] * kt[d];
    dots[t] = fold_qk_lanes(lanes);
  }
}

void sv_accum_scalar(const float* p, const float* v, int64_t n, int head_dim,
                     float* out) {
  for (int64_t t = 0; t < n; ++t) {
    const float* vt = v + t * head_dim;
    const float pt = p[t];
    for (int d = 0; d < head_dim; ++d) out[d] += pt * vt[d];
  }
}

constexpr AttentionKernels kScalarAttentionKernels = {
    Isa::kScalar,
    dequant_scalar,
    qk_dot_scalar,
    sv_accum_scalar,
};

}  // namespace

const AttentionKernels& attention_kernel_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      break;
    case Isa::kAvx2:
      if (const AttentionKernels* k = avx2_attention_kernel()) return *k;
      break;
    case Isa::kAvx512:
      if (const AttentionKernels* k = avx512_attention_kernel()) return *k;
      break;
  }
  return kScalarAttentionKernels;
}

}  // namespace qserve::cpu
