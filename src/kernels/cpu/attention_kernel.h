// Attention microkernels over quantized KV page runs, behind the same
// runtime ISA dispatch as the GEMM microkernels (microkernel.h).
//
// Three kernels. `dequant` decodes a contiguous slice of one head's page
// run — nibble-packed INT4, INT8 codes, FP16 bits, or floats — into a small
// float tile; it is the only function per ISA that dispatches on the storage
// form, and the paged cache's only decoder (PagedKvCache::gather runs the
// scalar entry over the same page runs). `qk_dot` and `sv_accum` then work
// on float rows only: the QK dots of one query head-vector against the
// tile's keys, and the probability-weighted accumulation of its values.
// The attention executor (kernels/attention.h) dequantizes each page run
// once per (KV head, block of query rows) and runs every row and GQA query
// head of the block on the tile, so no dequantized K/V matrix of the
// context is ever materialized — the CPU counterpart of the QServe CUDA
// kernel that walks pages and dequantizes per head-vector (§5.3).
//
// Numerics contract: float summation is not associative, so — unlike the
// INT32 GEMM microkernels — vector-lane order matters. Every implementation
// therefore commits to one canonical reduction order, chosen to be the
// natural SIMD order so the vector kernels pay nothing for it:
//
//  * Dequant: each element is float(code) * scale (+ zero), or the exact
//    half -> float conversion, rounded as written; where it is computed
//    (tile or register) changes no bit.
//  * QK dot: 16 virtual lanes. Lane l accumulates the products q[d] * k[d]
//    for d ≡ l (mod 16) in increasing d; the lanes are then folded pairwise
//    16→8→4→2→1 (fold_qk_lanes below). The scalar kernel keeps the 16 lanes
//    in a float array; AVX2 holds them in two __m256 accumulators, AVX-512
//    in one __m512 — identical per-lane add sequences, identical fold,
//    bitwise-identical dots. The AVX-512 kernel folds 16 tokens' lanes at
//    once with shuffles that add the same pairs.
//  * SV: out[d] += p[t] * v_t[d] with tokens strictly in run order. The
//    accumulation chain per output element is token-sequential at any
//    vector width, so this is order-stable by construction.
//
// Every dequantized element and every product/sum is computed mul-then-add
// with separate roundings: no FMA anywhere (the attention kernel TUs are
// compiled with -ffp-contract=off, and the vector kernels use mul_ps/add_ps,
// never fmadd). This is what makes scalar/AVX2/AVX-512 agree bit for bit —
// a property tests/test_attention_isa.cpp pins across KV formats, GQA
// shapes, span lengths and page-crossing lengths.
#pragma once

#include <cstdint>

#include "kernels/cpu/isa.h"

namespace qserve::cpu {

// Virtual accumulator lanes of the canonical QK reduction order.
inline constexpr int kQkLanes = 16;

// Canonical pairwise fold of the 16 QK lanes (16→8→4→2→1) — the order a
// SIMD horizontal reduce performs naturally. Pure adds: contraction-free by
// construction, so it is safe to inline into any TU.
inline float fold_qk_lanes(const float* lanes) {
  float s8[8], s4[4], s2[2];
  for (int l = 0; l < 8; ++l) s8[l] = lanes[l] + lanes[l + 8];
  for (int l = 0; l < 4; ++l) s4[l] = s8[l] + s8[l + 4];
  for (int l = 0; l < 2; ++l) s2[l] = s4[l] + s4[l + 2];
  return s2[0] + s2[1];
}

// Storage form of one KV head run (mirrors PagedKvCache's page layout plus
// the float form of a gathered K/V matrix).
enum class KvRunKind : int {
  kF32 = 0,  // dequantized floats (PagedKvCache::gather rows)
  kFp16,     // binary16 bits (KvPrecision::kFp16 pages)
  kInt8Dyn,  // unsigned INT8 codes + per-(token,head) FP16 scale/zero
  kInt4Dyn,  // nibble-packed UINT4 codes + per-(token,head) FP16 params
};

// One head's slice of a contiguous run of tokens (at most one KV page): the
// kernel-facing view PagedKvCache::SeqView::k_run/v_run produce. Exactly one
// of codes/half_bits/f32 is set, per `kind`. Strides are token-to-token:
// bytes for `codes`, elements for `half_bits`/`f32`, uint16 elements for
// `params` (which points at token 0's {scale_bits, zero_bits} pair).
struct KvHeadRun {
  KvRunKind kind = KvRunKind::kF32;
  int64_t n_tokens = 0;
  const uint8_t* codes = nullptr;
  const uint16_t* half_bits = nullptr;
  const float* f32 = nullptr;
  int64_t stride = 0;
  const uint16_t* params = nullptr;
  int64_t param_stride = 0;
};

struct AttentionKernels {
  Isa isa;
  // dst[i * head_dim + d] = element d of run token t0 + i, dequantized, for
  // i in [0, n): the one place each storage form is decoded.
  void (*dequant)(const KvHeadRun& run, int64_t t0, int64_t n, int head_dim,
                  float* dst);
  // dots[t] = canonical-order dot of q[0..head_dim) against the float key
  // row k + t * head_dim (a dequant tile), for t in [0, n). The caller
  // applies the 1/sqrt(D) scale and any FP16 rounding — the kernel returns
  // raw dots.
  void (*qk_dot)(const float* q, const float* k, int64_t n, int head_dim,
                 float* dots);
  // out[d] += p[t] * v[t * head_dim + d] for t in [0, n), in order —
  // accumulates into `out`, so the caller zeroes it once and chains tiles
  // back to back.
  void (*sv_accum)(const float* p, const float* v, int64_t n, int head_dim,
                   float* out);
};

// Dispatch table lookup; falls back to the scalar kernels if `isa` was not
// compiled into this binary (non-x86 builds).
const AttentionKernels& attention_kernel_for(Isa isa);

// Per-ISA factories (nullptr when compiled out), mirroring microkernel.h.
const AttentionKernels* avx2_attention_kernel();
const AttentionKernels* avx512_attention_kernel();

}  // namespace qserve::cpu
