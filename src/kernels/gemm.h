// GEMM kernels reproducing the numerics of each serving system's pipeline
// (Figure 5). All kernels compute Y[m,n] = X[m,k] * W[n,k]^T.
//
//   gemm_blocked           — the INT8 path, on weights packed by pack_gemm_b:
//     W8PerChannel           TRT-LLM W8A8: INT8 MACs, epilogue scaling;
//     W4PerChannel           QServe per-channel: UINT4 codes MAC'd directly,
//                            zero-point term folded into the epilogue via the
//                            precomputed token sums tX (Eq. 12/13);
//     W4PerGroup             QServe progressive: packing does the level-2
//                            dequant to level-1 INT8 codes (sub-after-mul),
//                            then INT8 MACs, level-1 scaling in the epilogue.
//   gemm_w4a4_atom         — Atom path: INT4 MACs with per-group FP32
//                            partial-sum dequantization in the main loop.
//   gemm_w4a16             — weight-only path: FP16 dequant in the main loop.
//   gemm_fp16              — FP16 weights (the LM head, the FP16 baseline):
//                            binary16 panels on the attention microkernels.
//
// Outputs are rounded through FP16 (the GPU kernels emit FP16), except
// gemm_fp16's FP32 logits.
//
// The INT8 path runs on runtime-dispatched SIMD microkernels (kernels/cpu/) over a cache-blocked,
// pre-packed weight layout; QSERVE_ISA selects scalar/avx2/avx512 at runtime
// and every path is bitwise identical.
#pragma once

#include "kernels/weight_layout.h"
#include "quant/types.h"
#include "quant/w4a16.h"

namespace qserve {

// Scalar, single-threaded reference with double accumulation — the oracle
// for tests, reference_model.cpp and QoQ calibration only. No serving path
// runs it; FP16 weights are served by gemm_fp16.
Tensor gemm_f32_ref(const Tensor& x, const Tensor& w);

// Binary16 bits of every element of `w` (round-to-nearest-even): the stored
// form of an FP16 weight matrix, one row per output channel.
U16Tensor to_half_bits(const Tensor& w);

// FP16-weight GEMM (the LM head and the FP16 baseline scheme's projections):
// Y[m, n] = X[m, k] * W[n, k]^T with W as binary16 rows, FP32 outputs (not
// rounded through FP16). Walks 16-row weight panels under parallel_for; the
// attention kernel table's `dequant` (KvRunKind::kFp16, stride k) decodes
// each panel into an L1 float tile and `qk_dot` dots every row of X against
// it. Each logit therefore follows the canonical 16-lane + fold_qk_lanes
// order (kernels/cpu/attention_kernel.h): bitwise identical across
// scalar/AVX2/AVX-512, any thread count, and any m (row t's logits do not
// depend on the other rows of X). Not bitwise to gemm_f32_ref, which sums in
// double.
Tensor gemm_fp16(const Tensor& x, const U16Tensor& w);

// Raw INT8 x INT8 -> INT32 (the "tensor core" primitive).
I32Tensor gemm_i8i8_i32(const I8Tensor& x, const I8Tensor& w);

// --- cache-blocked SIMD driver on pre-packed weights -------------------------
//
// Pack once with pack_gemm_b (kernels/weight_layout.h), at the active ISA's
// microkernel width (cpu::microkernel_for(cpu::active_isa()).nr), and run
// every GEMM against the same weights on the packed form — packing also
// pre-dequantizes per-group weights to their level-1 INT8 codes. The level-2
// dequant's SWAR-faithful form (RLP, over the compute-aware reordered
// stream) decodes to the same codes; test_weight_layout pins the two.
//
// The driver tiles over (n, k): output channels in panels of `w.nr` rows,
// input channels in blocks sized to keep a weight sub-panel L1-resident, and
// iterates tokens innermost so each unpacked weight tile is reused across
// all m tokens of the call. Results are bitwise identical for every ISA and
// any thread count: the INT32 accumulators are exact integer sums and the
// FP16 epilogue is evaluated in the same order as the scalar kernels.
Tensor gemm_blocked(const QuantizedActs& x, const PackedGemmB& w);

// The raw INT32 accumulators acc[t, r] = sum_c x.q[t, c] * code(r, c) before
// the epilogue — exposed so tests can assert cross-ISA bitwise identity at
// the accumulator level, not just after FP16 rounding, and so the
// tensor-parallel row-parallel path can all-reduce per-shard k-slice
// partials exactly (integer sums are order-independent).
I32Tensor gemm_blocked_acc(const QuantizedActs& x, const PackedGemmB& w);

// gemm_blocked's exact epilogue applied to externally-reduced accumulators
// (the tensor-parallel all-reduce of per-shard partials). `scale`/`zp_term`
// are the full-row epilogue constants — identical in every k-slice pack,
// since they are per-output-row — and `x` supplies the full-row per-token
// scale and token sum (zp_term empty = no zero-point term). Bitwise
// identical to gemm_blocked on the unsliced pack: the INT32 accumulator sum
// is exact and the float expression is evaluated in the same order.
Tensor gemm_blocked_epilogue(const I32Tensor& acc, const QuantizedActs& x,
                             const std::vector<float>& scale,
                             const std::vector<float>& zp_term);

// x must be per-token INT4-quantized (quantize_acts_per_token_int4).
Tensor gemm_w4a4_atom(const QuantizedActs& x, const W4A4PerGroup& w);

Tensor gemm_w4a16(const Tensor& x, const W4A16PerGroup& w);

}  // namespace qserve
