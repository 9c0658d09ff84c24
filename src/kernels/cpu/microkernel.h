// INT8 dot-product microkernels, and the float row entries around them,
// behind the runtime ISA dispatch.
//
// One microkernel call computes a register tile: `m` tokens x `np` panels of
// `nr` output channels each, over one run of `kc` input channels (a k-block):
//
//   acc[t * acc_stride + p * nr + r] += sum_{c < kc} x[t * x_stride + c]
//                                                    * panel_p[c, r]
//   (t in [0, m), p in [0, np), r in [0, nr))
//
// Each panel is the interleaved layout produced by pack_gemm_b()
// (kernels/weight_layout.h): input channels are grouped in fours ("k-groups",
// the granularity of vpdpbusd / vpmaddubsw), and within a k-group the `nr`
// rows are stored contiguously:
//
//   panel_p[(g * nr + r) * 4 + j] = code(row r, input channel g*4 + j)
//
// so one 64-byte vector load yields 16 rows x 4 input channels — the same
// fragment shape an MMA tile consumes on the GPU. Panel p starts w_stride
// bytes after panel p - 1. `kc` is always a multiple of 4 (the packer
// zero-pads k). Inside a call each weight load feeds all m tokens and each
// activation broadcast feeds all np panels; the vector kernels hold the
// whole m x np tile in registers for the k-block. A kernel's `mr` x `np` is
// its largest tile; the driver passes any m <= mr and np <= that, so row and
// panel tails run through the same entry.
//
// Numerics contract: every implementation produces the INT32 accumulator the
// scalar loop produces, bit for bit, for the full operand ranges
// (activations and signed weight codes in [-128, 127], unsigned codes in
// [0, 15]). Two ISA-specific tricks keep that true:
//  * AVX2 widens both operands to 16 bits and uses vpmaddwd — exact for all
//    int8 products (vpmaddubsw on sign-split operands would saturate or
//    mis-handle -128, which the naive-range overflow repro can emit).
//  * AVX-512 VNNI multiplies unsigned by signed bytes with vpdpbusd. For
//    signed weight codes (`bias_compensated`) the driver stages the
//    activations biased to unsigned (x ^ 0x80 = x + 128) once per call and
//    subtracts 128 * row_sum(w) once per output, restoring the exact sum.
// Integer addition is associative, so vector-lane and k-block order never
// matter.
//
// Around the tiles, two row entries do the float work of a W4A8 layer: the
// per-token activation quantizer that feeds the tiles and the FP16 epilogue
// that scales their sums. The scalar TU holds both as the reference loops;
// every vector entry returns the reference's bits for every input, NaN, inf,
// ±0 and subnormals included. What that takes:
//  * quantize_row — abs-max skips NaN as `a > m` does (`max(a, m)`, in that
//    operand order); each code is floor(v + 0.5) or ceil(v - 0.5) on an
//    ordered v >= 0, with v = x * (1 / scale) a plain multiply and no fused
//    add; truncating conversion (NaN -> INT_MIN), then clamp; the token sum
//    is one sequential float chain in channel order.
//  * scale_row — (float(acc) * sx) * scale as two rounded multiplies, the
//    zero-point term as one fused multiply-add in every ISA (and every build:
//    the TUs compile with contraction off).
// Both round their float outputs with row_half: which of several input NaNs
// an add or fused multiply-add passes on, and with which sign, depends on
// the operand order and instruction form the compiler picks (and on libm's
// fmaf where the build has no FMA), so every NaN becomes kRowNan.
#pragma once

#include <cstdint>
#include <limits>

#include "common/half.h"
#include "kernels/cpu/isa.h"

namespace qserve::cpu {

// Input channels per packed k-group (vpdpbusd granularity).
inline constexpr int kKGroup = 4;

// The one NaN the row entries write: x86's default NaN (bits 0xFFC00000),
// the one 0 * inf gives, as from a row whose FP16 scale overflowed.
inline constexpr float kRowNan = -std::numeric_limits<float>::quiet_NaN();

// to_half_precision, with every NaN mapped to kRowNan.
inline float row_half(float v) {
  return v != v ? kRowNan : to_half_precision(v);
}

// Operands of one tile call (see the contract above).
struct TileArgs {
  const int8_t* x;     // token 0's first code of the k-block
  int64_t x_stride;    // bytes between tokens
  const int8_t* w;     // panel 0's first k-group of the k-block
  int64_t w_stride;    // bytes between panels
  int64_t kc;          // input channels in the k-block, a multiple of 4
  int m;               // tokens, 1..mr
  int np;              // panels, 1..np of the kernel
  int nr;              // output channels per panel
  bool w_unsigned;     // UINT4 codes (0..15): the weight is the unsigned
                       // operand and x is plain signed; else signed codes
                       // and x is biased iff bias_compensated
  int32_t* acc;        // accumulated into, never overwritten
  int64_t acc_stride;  // int32s between tokens
};

struct Microkernel {
  Isa isa;
  int nr;  // output channels per panel (vector width in INT32 lanes)
  int mr;  // tokens per register tile
  int np;  // panels per register tile
  // True if signed-code tiles take biased activations and accumulate
  // sum((x + 128) * w); the caller must subtract 128 * row_sum afterwards.
  // UINT4-code tiles never need compensation.
  bool bias_compensated;
  void (*tile)(const TileArgs& a);
  // One token's symmetric quantization: *scale = fp16_scale(abs_max(x),
  // qmax), q[c] = clamp(round_half_away(x[c] * (1 / *scale)), lo, hi), and
  // *token_sum = row_half of the float sum of x[0..k) in order.
  void (*quantize_row)(const float* x, int64_t k, float qmax, int lo, int hi,
                       int8_t* q, float* scale, float* token_sum);
  // GEMM epilogue of one output row segment: y[i] = FP16 of
  // (float(acc[i]) * sx) * scale[i], minus token_sum * zp_term[i] fused into
  // one rounding when zp_term is non-null (the per-channel W4A8 zero point,
  // subtracted after multiplication: Eq. 12/13), through row_half.
  void (*scale_row)(const int32_t* acc, int64_t count, float sx,
                    float token_sum, const float* scale, const float* zp_term,
                    float* y);
};

// Dispatch table lookup; falls back to the scalar kernel if `isa` was not
// compiled into this binary (non-x86 builds).
const Microkernel& microkernel_for(Isa isa);

// Per-ISA factories (nullptr when compiled out). The scalar kernel accepts
// any nr; the vector kernels require nr == their fixed width.
const Microkernel* avx2_microkernel();
const Microkernel* avx512_microkernel();

}  // namespace qserve::cpu
