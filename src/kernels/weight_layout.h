// Compute-aware weight reordering (§5.2.1, Fig. 12) + RLP nibble interleave.
//
// The CUDA kernel cannot use `ldmatrix` for W4A8 because storage (4-bit) and
// compute (8-bit) types differ, so QServe stores weights *in the order the
// tensor-core fragments consume them*: the GEMM is tiled into 32x32 blocks
// (32 output x 32 input channels); within a tile, each of the 32 threads owns
// a 128-bit word holding exactly the 32 codes it feeds to the MMA. Every 8
// codes inside the word are nibble-interleaved (w0,w16,w1,w17,...) so the
// Figure-13 unpack applies.
//
// On CPU the layout is a pure permutation; we implement it exactly so that
//  (a) round-trip tests prove it is a bijection, and
//  (b) the stream can be consumed strictly sequentially (test_weight_layout
//      walks it with the RLP unpack + dequant and matches pack_gemm_b's
//      codes), which is what eliminates per-fragment pointer arithmetic on
//      the GPU (the simulator charges address-calculation ops per fragment
//      for the non-reordered layout).
#pragma once

#include <cstdint>
#include <vector>

#include "common/math_util.h"
#include "quant/types.h"

namespace qserve {

inline constexpr int kTileN = 32;  // output channels per tile
inline constexpr int kTileK = 32;  // input channels per tile
inline constexpr int kThreadsPerTile = 32;
inline constexpr int kWordsPerThread = 4;  // 4 u32 words = 128 bits

// Thread-to-channel mapping inside a 32x32 tile (mirrors Fig. 12a/c):
// thread t covers output channels (t/4) + 8*j for j in 0..3 and input
// channels (t%4)*4 + l and (t%4)*4 + l + 16 for l in 0..3.
inline int tile_out_channel(int thread, int j) {
  return (thread / 4) + 8 * j;
}
inline int tile_in_channel_a(int thread, int l) { return (thread % 4) * 4 + l; }
inline int tile_in_channel_b(int thread, int l) {
  return (thread % 4) * 4 + l + 16;
}

// Reordered stream: tiles in (n_tile-major, then k_tile) order — the order a
// thread block walks the main loop — then thread id, then word index.
struct ReorderedW4 {
  std::vector<uint32_t> words;
  int64_t n = 0;
  int64_t k = 0;
  int64_t n_tiles() const { return n / kTileN; }
  int64_t k_tiles() const { return k / kTileK; }
  // Stream offset of a (n_tile, k_tile, thread, word) fragment.
  int64_t index(int64_t nt, int64_t kt, int thread, int word) const {
    return ((nt * k_tiles() + kt) * kThreadsPerTile + thread) *
               kWordsPerThread +
           word;
  }
};

// Reorder a packed UINT4 weight matrix ([n, k], n % 32 == 0, k % 32 == 0).
ReorderedW4 reorder_w4_for_compute(const PackedU4& qw);

// Inverse transformation (for round-trip verification).
U8Tensor unreorder_w4(const ReorderedW4& r);

// Per-(channel, group) metadata (scales / zero points) reordered to match the
// stream: for each (n_tile, k_tile) the 32 output-channel entries of the
// group containing that k-tile, in thread consumption order. The paper
// applies the same reordering to zeros and scales (§5.2.1).
struct ReorderedGroupMeta {
  std::vector<uint8_t> s1;  // stream-ordered level-2 scales
  std::vector<uint8_t> z;   // stream-ordered zero points
  int group = 128;
};

ReorderedGroupMeta reorder_group_meta(const W4PerGroup& w);

// ---------------------------------------------------------------------------
// ISA-friendly packed layout for the cache-blocked SIMD GEMM driver
// ---------------------------------------------------------------------------
//
// pack_gemm_b() transforms a quantized weight matrix once per layer into the
// interleaved panel layout the CPU microkernels (kernels/cpu/microkernel.h)
// consume: output channels are tiled into panels of `nr` rows, input channels
// into k-groups of 4 codes, and within a k-group the nr rows are contiguous:
//
//   data[p * k_padded * nr + (g * nr + r) * 4 + j]
//     = code(row p*nr + r, input channel g*4 + j)
//
// k is zero-padded to a multiple of 4 and the last panel's missing rows are
// zero codes, so the microkernels never need edge handling. Packing also:
//  * pre-dequantizes per-group W4 weights to their level-1 INT8 codes
//    ((q - z) * s1, two's-complement wrap, exactly the scalar kernel's
//    arithmetic) — eliminating the per-call re-dequantization of weight rows
//    the plain kernel pays on every token batch;
//  * precomputes per-row code sums (`row_sum`) so the AVX-512 VNNI kernel's
//    biased-activation trick can be compensated exactly in the epilogue;
//  * carries the per-row epilogue constants (scale, and z*s for the
//    per-channel scheme) so the driver needs no access to the source struct.
struct PackedGemmB {
  std::vector<int8_t> data;      // interleaved codes (u4 codes stored 0..15)
  std::vector<int32_t> row_sum;  // [n] sum of codes per row (bias compensation)
  std::vector<float> scale;      // [n] per-row epilogue scale (s / s0)
  std::vector<float> zp_term;    // [n] per-row z*s; empty unless per-channel W4
  int64_t n = 0;
  int64_t k = 0;
  int64_t k_padded = 0;  // k rounded up to a k-group multiple
  int nr = 8;            // rows per panel (microkernel vector width)
  bool unsigned_codes = false;  // true: UINT4 codes, the unsigned tile operand

  bool valid() const { return n > 0; }
  int64_t panels() const { return ceil_div(n, nr); }
  int64_t panel_stride() const { return k_padded * nr; }  // bytes per panel
};

// `nr` is the microkernel vector width — pass
// cpu::microkernel_for(cpu::active_isa()).nr (the blocked driver falls back
// to the scalar kernel when the packed nr no longer matches the active ISA).
PackedGemmB pack_gemm_b(const W8PerChannel& w, int nr);
PackedGemmB pack_gemm_b(const W4PerChannel& w, int nr);
PackedGemmB pack_gemm_b(const W4PerGroup& w, int nr);

// Rectangular slice of a weight matrix, packed for one tensor-parallel
// shard: rows [row0, row1) are output channels (column-parallel sharding),
// cols [col0, col1) input channels (row-parallel sharding). Metadata is
// looked up at ABSOLUTE indices — per-group scales/zeros come from the
// group containing the absolute column — so every packed code, row_sum and
// epilogue constant is bitwise the one the full pack would carry for the
// same (row, col). No alignment is required of the slice bounds; empty
// slices produce an invalid (n == 0 or k == 0) pack the caller must skip.
struct PackSlice {
  int64_t row0 = 0, row1 = 0;
  int64_t col0 = 0, col1 = 0;
};

PackedGemmB pack_gemm_b_slice(const W8PerChannel& w, int nr,
                              const PackSlice& s);
PackedGemmB pack_gemm_b_slice(const W4PerChannel& w, int nr,
                              const PackSlice& s);
PackedGemmB pack_gemm_b_slice(const W4PerGroup& w, int nr,
                              const PackSlice& s);

}  // namespace qserve
