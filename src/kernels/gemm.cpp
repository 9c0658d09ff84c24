#include "kernels/gemm.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "common/half.h"
#include "common/math_util.h"
#include "common/parallel.h"
#include "kernels/cpu/attention_kernel.h"
#include "kernels/cpu/microkernel.h"

namespace qserve {

namespace {

// Input channels per k-block of the (panel block, k-block, token block) loop
// nest. One AVX-512 panel block's k-block (4 panels x 16 rows x kKcBlock
// codes, 64 KiB at 1024) stays cache-resident while every token tile of the
// call sweeps it, so weights are read from memory once per call instead of
// once per token. 256- and 512-channel blocks measured no faster on the
// seven projections of a servebench layer.
constexpr int64_t kKcBlock = 1024;

// Panels (or panel blocks) per parallel_for chunk, derived from the count
// and the pool size so small-n decode layers spread over every worker
// instead of serializing on one chunk (a fixed grain of 8 rows left
// n <= 8*threads running on a fraction of the pool). Capped at 8 per chunk
// to keep chunks cache-friendly on wide layers.
int64_t panel_grain(int64_t panels) {
  const int64_t threads = std::max(1, num_threads());
  return clamp<int64_t>(panels / (4 * threads), 1, 8);
}

// Vocab rows per gemm_fp16 panel. One panel's float tile (16 x k) is what
// every logit row's qk_dot reads from L1, and 16 rows feed the AVX-512
// qk_dot's 16-token path whole; 32-row tiles measured slower at k = 512.
constexpr int64_t kFp16PanelRows = 16;

// This thread's INT32 partial sums for one panel block over all m tokens,
// carried across k-blocks. Grown, never shrunk, so steady-state calls do
// not allocate.
int32_t* partial_sums(size_t n) {
  thread_local std::vector<int32_t> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

// Core blocked driver. Calls epilogue(t, r0, count, acc) exactly once per
// (token, panel block) with the exact scalar INT32 accumulators of outputs
// r0 .. r0 + count - 1 of token t; epilogue must be safe to call
// concurrently for disjoint r.
template <typename EpilogueFn>
void run_blocked(const QuantizedActs& x, const PackedGemmB& w,
                 const EpilogueFn& epilogue) {
  QS_CHECK(w.valid());
  QS_CHECK_EQ(x.k(), w.k);
  const int64_t m = x.m(), kp = w.k_padded;
  const int nr = w.nr;

  // Microkernel lookup: if the active ISA's vector width no longer matches
  // the packed layout (a test flipped QSERVE_ISA after packing), fall back
  // to the scalar kernel, which handles any nr.
  const cpu::Microkernel* mk = &cpu::microkernel_for(cpu::active_isa());
  if (mk->nr != nr) mk = &cpu::microkernel_for(cpu::Isa::kScalar);
  const bool compensate = mk->bias_compensated && !w.unsigned_codes;

  // Stage activations zero-padded to the k-group multiple (pad weight codes
  // are zero, so pads contribute nothing), biased to unsigned (x ^ 0x80)
  // here once when the kernel multiplies biased activations.
  const int8_t* xbase = x.q.data();
  std::vector<int8_t> xstage;
  if (kp != w.k || compensate) {
    const uint8_t bias = compensate ? 0x80 : 0;
    xstage.assign(static_cast<size_t>(m * kp), static_cast<int8_t>(bias));
    const uint64_t bias8 = bias * 0x0101010101010101ull;
    for (int64_t t = 0; t < m; ++t) {
      const int8_t* src = x.q.row(t);
      int8_t* dst = xstage.data() + t * kp;
      int64_t c = 0;
      for (; c + 8 <= w.k; c += 8) {  // eight codes per step
        uint64_t v;
        std::memcpy(&v, src + c, sizeof(v));
        v ^= bias8;
        std::memcpy(dst + c, &v, sizeof(v));
      }
      for (; c < w.k; ++c)
        dst[c] = static_cast<int8_t>(static_cast<uint8_t>(src[c]) ^ bias);
    }
    xbase = xstage.data();
  }

  // Loop nest: panel block (mk->np panels, the parallel dimension), k-block,
  // token block (mk->mr tokens). Each step is one register-tile call; row,
  // panel and k tails are smaller tiles of the same entry. The epilogue runs
  // on a token block's outputs right after its last k-block. Partial sums
  // start at the bias compensation -128 * row_sum (else 0), so the tiles'
  // sums come out exact.
  const int64_t panels = w.panels();
  const int64_t blocks = ceil_div(panels, int64_t(mk->np));
  const int64_t ld = int64_t(mk->np) * nr;
  parallel_for(0, blocks, panel_grain(blocks), [&](int64_t b0, int64_t b1) {
    int32_t* pacc = partial_sums(static_cast<size_t>(m * ld));
    cpu::TileArgs a{};
    a.x_stride = kp;
    a.w_stride = w.panel_stride();
    a.nr = nr;
    a.w_unsigned = w.unsigned_codes;
    a.acc_stride = ld;
    for (int64_t b = b0; b < b1; ++b) {
      const int64_t p0 = b * mk->np;
      a.np = static_cast<int>(std::min<int64_t>(mk->np, panels - p0));
      const int64_t r0 = p0 * nr;
      const int64_t r_end = std::min<int64_t>(int64_t(a.np) * nr, w.n - r0);
      for (int64_t t = 0; t < m; ++t) {
        int32_t* row = pacc + t * ld;
        std::fill(row, row + ld, 0);
        if (compensate)
          for (int64_t ri = 0; ri < r_end; ++ri)
            row[ri] = -128 * w.row_sum[static_cast<size_t>(r0 + ri)];
      }
      for (int64_t c0 = 0; c0 < kp; c0 += kKcBlock) {
        a.kc = std::min(kKcBlock, kp - c0);
        a.w = w.data.data() + p0 * w.panel_stride() + c0 * nr;
        const bool last = c0 + a.kc == kp;
        for (int64_t t0 = 0; t0 < m; t0 += mk->mr) {
          a.m = static_cast<int>(std::min<int64_t>(mk->mr, m - t0));
          a.x = xbase + t0 * kp + c0;
          a.acc = pacc + t0 * ld;
          mk->tile(a);
          if (!last) continue;
          for (int64_t t = t0; t < t0 + a.m; ++t)
            epilogue(t, r0, r_end, pacc + t * ld);
        }
      }
    }
  });
}

}  // namespace

Tensor gemm_f32_ref(const Tensor& x, const Tensor& w) {
  QS_CHECK_EQ(x.cols(), w.cols());
  const int64_t m = x.rows(), k = x.cols(), n = w.rows();
  Tensor y({m, n});
  for (int64_t t = 0; t < m; ++t) {
    const float* xr = x.row(t);
    for (int64_t r = 0; r < n; ++r) {
      const float* wr = w.row(r);
      double acc = 0.0;
      for (int64_t c = 0; c < k; ++c) acc += double(xr[c]) * double(wr[c]);
      y.at2(t, r) = static_cast<float>(acc);
    }
  }
  return y;
}

U16Tensor to_half_bits(const Tensor& w) {
  U16Tensor h(w.shape());
  for (int64_t i = 0; i < w.numel(); ++i)
    h[i] = detail::float_to_half_bits(w[i]);
  return h;
}

Tensor gemm_fp16(const Tensor& x, const U16Tensor& w) {
  QS_CHECK_EQ(x.cols(), w.cols());
  const int64_t m = x.rows(), k = w.cols(), n = w.rows();
  QS_CHECK_LE(k, int64_t(std::numeric_limits<int>::max()));
  Tensor y({m, n});
  // The weight rows are a kFp16 run of n "tokens" of width k: the attention
  // table's dequant decodes a panel of them, and qk_dot dots each logit row
  // against the decoded tile in the canonical 16-lane order.
  const cpu::AttentionKernels& ker =
      cpu::attention_kernel_for(cpu::active_isa());
  cpu::KvHeadRun run;
  run.kind = cpu::KvRunKind::kFp16;
  run.n_tokens = n;
  run.half_bits = w.data();
  run.stride = k;
  const int kd = static_cast<int>(k);
  const int64_t panels = ceil_div(n, kFp16PanelRows);
  parallel_for(0, panels, panel_grain(panels), [&](int64_t p0, int64_t p1) {
    std::vector<float> tile(static_cast<size_t>(kFp16PanelRows * k));
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t r0 = p * kFp16PanelRows;
      const int64_t rows = std::min(kFp16PanelRows, n - r0);
      ker.dequant(run, r0, rows, kd, tile.data());
      for (int64_t t = 0; t < m; ++t)
        ker.qk_dot(x.row(t), tile.data(), rows, kd, y.row(t) + r0);
    }
  });
  return y;
}

I32Tensor gemm_i8i8_i32(const I8Tensor& x, const I8Tensor& w) {
  QS_CHECK_EQ(x.cols(), w.cols());
  const int64_t m = x.rows(), k = x.cols(), n = w.rows();
  I32Tensor y({m, n});
  for (int64_t t = 0; t < m; ++t) {
    const int8_t* xr = x.row(t);
    for (int64_t r = 0; r < n; ++r) {
      const int8_t* wr = w.row(r);
      int32_t acc = 0;
      for (int64_t c = 0; c < k; ++c)
        acc += int32_t(xr[c]) * int32_t(wr[c]);
      y.at2(t, r) = acc;
    }
  }
  return y;
}

// Both epilogues below scale through the active ISA's scale_row (FP16
// output; the per-channel W4A8 zero-point term -tX * (z*s) subtracted after
// multiplication, Eq. 12/13, when zp_term is non-empty), so sharded and
// one-shard outputs round identically.
Tensor gemm_blocked(const QuantizedActs& x, const PackedGemmB& w) {
  Tensor y({x.m(), w.n});
  const bool has_zp = !w.zp_term.empty();
  const auto scale_row = cpu::microkernel_for(cpu::active_isa()).scale_row;
  run_blocked(x, w, [&](int64_t t, int64_t r0, int64_t count,
                        const int32_t* acc) {
    scale_row(acc, count, x.s[t], has_zp ? x.token_sum[t] : 0.0f,
              w.scale.data() + r0, has_zp ? w.zp_term.data() + r0 : nullptr,
              y.row(t) + r0);
  });
  return y;
}

I32Tensor gemm_blocked_acc(const QuantizedActs& x, const PackedGemmB& w) {
  I32Tensor acc({x.m(), w.n});
  run_blocked(x, w, [&](int64_t t, int64_t r0, int64_t count,
                        const int32_t* a) {
    std::copy(a, a + count, acc.row(t) + r0);
  });
  return acc;
}

Tensor gemm_blocked_epilogue(const I32Tensor& acc, const QuantizedActs& x,
                             const std::vector<float>& scale,
                             const std::vector<float>& zp_term) {
  const int64_t m = acc.rows(), n = acc.cols();
  QS_CHECK_EQ(m, x.m());
  QS_CHECK_EQ(n, static_cast<int64_t>(scale.size()));
  const bool has_zp = !zp_term.empty();
  if (has_zp) QS_CHECK_EQ(n, static_cast<int64_t>(zp_term.size()));
  const auto scale_row = cpu::microkernel_for(cpu::active_isa()).scale_row;
  Tensor y({m, n});
  parallel_for(0, m, 1, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t)
      scale_row(acc.row(t), n, x.s[t], has_zp ? x.token_sum[t] : 0.0f,
                scale.data(), has_zp ? zp_term.data() : nullptr, y.row(t));
  });
  return y;
}

Tensor gemm_w4a4_atom(const QuantizedActs& x, const W4A4PerGroup& w) {
  QS_CHECK_EQ(x.k(), w.k());
  const int64_t m = x.m(), k = x.k(), n = w.n();
  const int64_t ng = k / w.group;
  Tensor y({m, n});
  for (int64_t t = 0; t < m; ++t) {
    const int8_t* xr = x.q.row(t);
    const float sx = x.s[t];
    for (int64_t r = 0; r < n; ++r) {
      const int8_t* wr = w.qw.row(r);
      // Per-group INT32 partial sums dequantized to FP32 *inside* the main
      // loop — the CUDA-core bottleneck of Fig. 5c.
      float acc = 0.0f;
      for (int64_t g = 0; g < ng; ++g) {
        const int64_t base = g * w.group;
        int32_t partial = 0;
        for (int64_t c = 0; c < w.group; ++c)
          partial += int32_t(xr[base + c]) * int32_t(wr[base + c]);
        acc += float(partial) * sx * w.s.at2(r, g);
      }
      y.at2(t, r) = to_half_precision(acc);
    }
  }
  return y;
}

Tensor gemm_w4a16(const Tensor& x, const W4A16PerGroup& w) {
  QS_CHECK_EQ(x.cols(), w.k());
  const int64_t m = x.rows(), k = x.cols(), n = w.n();
  Tensor y({m, n});
  for (int64_t r = 0; r < n; ++r) {
    // Main-loop INT4 -> FP16 weight dequantization (Fig. 5b).
    std::vector<float> wrow(static_cast<size_t>(k));
    for (int64_t c = 0; c < k; ++c) {
      const int64_t g = c / w.group;
      wrow[static_cast<size_t>(c)] = to_half_precision(
          float(int(get_u4(w.qw, r, c)) - int(w.z.at2(r, g))) *
          w.s.at2(r, g));
    }
    for (int64_t t = 0; t < m; ++t) {
      const float* xr = x.row(t);
      float acc = 0.0f;
      for (int64_t c = 0; c < k; ++c)
        acc += xr[c] * wrow[static_cast<size_t>(c)];
      y.at2(t, r) = to_half_precision(acc);
    }
  }
  return y;
}

}  // namespace qserve
