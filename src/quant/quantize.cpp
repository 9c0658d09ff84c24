#include "quant/quantize.h"

#include <algorithm>
#include <cmath>

#include "common/half.h"
#include "common/math_util.h"
#include "common/parallel.h"
#include "kernels/cpu/isa.h"
#include "kernels/cpu/microkernel.h"

namespace qserve {

namespace {

// Per-token symmetric quantization of every row of x to codes in [lo, hi]
// on the active ISA's row entry. Each token row quantizes independently
// (scale, codes, and token sum are all per-row), so the batched step
// executor's stacked activation buffer — decode tokens and prefill chunks
// from many requests — parallelizes here without changing a single bit.
QuantizedActs quantize_acts_rows(const Tensor& x, float qmax, int lo, int hi) {
  QS_CHECK_EQ(x.ndim(), 2);
  const int64_t m = x.rows(), k = x.cols();
  QuantizedActs out;
  out.q = I8Tensor({m, k});
  out.s = Tensor({m});
  out.token_sum = Tensor({m});
  const auto quantize_row =
      cpu::microkernel_for(cpu::active_isa()).quantize_row;
  parallel_for(0, m, 4, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t)
      quantize_row(x.row(t), k, qmax, lo, hi, out.q.row(t), &out.s[t],
                   &out.token_sum[t]);
  });
  return out;
}

}  // namespace

// --- W8A8 --------------------------------------------------------------------

W8PerChannel quantize_w8_per_channel(const Tensor& w) {
  QS_CHECK_EQ(w.ndim(), 2);
  const int64_t n = w.rows(), k = w.cols();
  W8PerChannel out;
  out.qw = I8Tensor({n, k});
  out.s = Tensor({n});
  for (int64_t r = 0; r < n; ++r) {
    const float s = fp16_scale(abs_max(w.row(r), k), 127.0f);
    out.s[r] = s;
    const float inv = 1.0f / s;
    for (int64_t c = 0; c < k; ++c) {
      out.qw.at2(r, c) = clamp_i8(round_half_away(w.at2(r, c) * inv));
    }
  }
  return out;
}

Tensor dequantize(const W8PerChannel& q) {
  Tensor w({q.n(), q.k()});
  for (int64_t r = 0; r < q.n(); ++r)
    for (int64_t c = 0; c < q.k(); ++c)
      w.at2(r, c) = float(q.qw.at2(r, c)) * q.s[r];
  return w;
}

// --- per-channel W4A8 ---------------------------------------------------------

W4PerChannel quantize_w4_per_channel(const Tensor& w) {
  QS_CHECK_EQ(w.ndim(), 2);
  const int64_t n = w.rows(), k = w.cols();
  U8Tensor codes({n, k});
  W4PerChannel out;
  out.z = U8Tensor({n});
  out.s = Tensor({n});
  out.szw = Tensor({n});
  for (int64_t r = 0; r < n; ++r) {
    float lo = w.at2(r, 0), hi = w.at2(r, 0);
    for (int64_t c = 1; c < k; ++c) {
      lo = std::min(lo, w.at2(r, c));
      hi = std::max(hi, w.at2(r, c));
    }
    lo = std::min(lo, 0.0f);
    hi = std::max(hi, 0.0f);
    const float s = fp16_scale(hi - lo, 15.0f);
    const int z = clamp(round_half_away(-lo / s), 0, 15);
    out.s[r] = s;
    out.z[r] = static_cast<uint8_t>(z);
    out.szw[r] = to_half_precision(float(z) * s);
    const float inv = 1.0f / s;
    for (int64_t c = 0; c < k; ++c) {
      codes.at2(r, c) = clamp_u4(round_half_away(w.at2(r, c) * inv) + z);
    }
  }
  out.qw = pack_u4(codes);
  return out;
}

Tensor dequantize(const W4PerChannel& q) {
  Tensor w({q.n(), q.k()});
  for (int64_t r = 0; r < q.n(); ++r) {
    const int z = q.z[r];
    const float s = q.s[r];
    for (int64_t c = 0; c < q.k(); ++c)
      w.at2(r, c) = float(int(get_u4(q.qw, r, c)) - z) * s;
  }
  return w;
}

// --- progressive group quantization --------------------------------------------

W4PerGroup quantize_progressive(const Tensor& w, const ProgressiveOptions& opt) {
  QS_CHECK_EQ(w.ndim(), 2);
  const int64_t n = w.rows(), k = w.cols();
  QS_CHECK_MSG(k % opt.group == 0,
               "k=" << k << " not divisible by group=" << opt.group);
  QS_CHECK(opt.level1_range > 0 && opt.level1_range <= 127);
  const int64_t ng = k / opt.group;

  W4PerGroup out;
  out.group = opt.group;
  out.s0 = Tensor({n});
  out.s1 = U8Tensor({n, ng});
  out.z = U8Tensor({n, ng});
  U8Tensor codes({n, k});
  std::vector<int> q0(static_cast<size_t>(k));

  const float range = static_cast<float>(opt.level1_range);
  for (int64_t r = 0; r < n; ++r) {
    // Level 1: per-channel symmetric INT8 with (protective) range.
    const float s0 = fp16_scale(abs_max(w.row(r), k), range);
    out.s0[r] = s0;
    const float inv0 = 1.0f / s0;
    for (int64_t c = 0; c < k; ++c) {
      q0[static_cast<size_t>(c)] =
          clamp(round_half_away(w.at2(r, c) * inv0), -opt.level1_range,
                opt.level1_range);
    }
    // Level 2: per-group asymmetric UINT4 over the INT8 codes (Figure 6).
    for (int64_t g = 0; g < ng; ++g) {
      const int64_t base = g * opt.group;
      int qmin = q0[static_cast<size_t>(base)], qmax = qmin;
      for (int64_t c = 1; c < opt.group; ++c) {
        const int v = q0[static_cast<size_t>(base + c)];
        qmin = std::min(qmin, v);
        qmax = std::max(qmax, v);
      }
      // Anchor the asymmetric range at zero so z stays in [0, 15] and
      // single-sign groups remain representable.
      qmin = std::min(qmin, 0);
      qmax = std::max(qmax, 0);
      int s1 = round_half_away(float(qmax - qmin) / 15.0f);
      s1 = clamp(s1, 1, 17);
      int z = clamp(round_half_away(-float(qmin) / float(s1)), 0, 15);
      out.s1.at2(r, g) = static_cast<uint8_t>(s1);
      out.z.at2(r, g) = static_cast<uint8_t>(z);
      for (int64_t c = 0; c < opt.group; ++c) {
        const int v = q0[static_cast<size_t>(base + c)];
        codes.at2(r, base + c) = clamp_u4(
            round_half_away(float(v) / float(s1)) + z);
      }
    }
  }
  out.qw = pack_u4(codes);
  return out;
}

I32Tensor dequantize_level1_codes(const W4PerGroup& q) {
  I32Tensor codes({q.n(), q.k()});
  for (int64_t r = 0; r < q.n(); ++r) {
    for (int64_t c = 0; c < q.k(); ++c) {
      const int64_t g = c / q.group;
      const int s1 = q.s1.at2(r, g);
      const int z = q.z.at2(r, g);
      codes.at2(r, c) = (int(get_u4(q.qw, r, c)) - z) * s1;
    }
  }
  return codes;
}

Tensor dequantize(const W4PerGroup& q) {
  const I32Tensor codes = dequantize_level1_codes(q);
  Tensor w({q.n(), q.k()});
  for (int64_t r = 0; r < q.n(); ++r)
    for (int64_t c = 0; c < q.k(); ++c)
      w.at2(r, c) = float(codes.at2(r, c)) * q.s0[r];
  return w;
}

// --- W4A4 (Atom / QuaRot baseline) ---------------------------------------------

W4A4PerGroup quantize_w4a4_per_group(const Tensor& w, int group) {
  QS_CHECK_EQ(w.ndim(), 2);
  const int64_t n = w.rows(), k = w.cols();
  QS_CHECK_EQ(k % group, 0);
  const int64_t ng = k / group;
  W4A4PerGroup out;
  out.group = group;
  out.qw = I8Tensor({n, k});
  out.s = Tensor({n, ng});
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t g = 0; g < ng; ++g) {
      const int64_t base = g * group;
      const float s = fp16_scale(abs_max(w.row(r) + base, group), 7.0f);
      out.s.at2(r, g) = s;
      const float inv = 1.0f / s;
      for (int64_t c = 0; c < group; ++c) {
        out.qw.at2(r, base + c) = static_cast<int8_t>(
            clamp(round_half_away(w.at2(r, base + c) * inv), -7, 7));
      }
    }
  }
  return out;
}

Tensor dequantize(const W4A4PerGroup& q) {
  Tensor w({q.n(), q.k()});
  for (int64_t r = 0; r < q.n(); ++r)
    for (int64_t c = 0; c < q.k(); ++c)
      w.at2(r, c) = float(q.qw.at2(r, c)) * q.s.at2(r, c / q.group);
  return w;
}

// --- activations ---------------------------------------------------------------

QuantizedActs quantize_acts_per_token(const Tensor& x) {
  return quantize_acts_rows(x, 127.0f, -128, 127);
}

Tensor dequantize(const QuantizedActs& q) {
  Tensor x({q.m(), q.k()});
  for (int64_t t = 0; t < q.m(); ++t)
    for (int64_t c = 0; c < q.k(); ++c)
      x.at2(t, c) = float(q.q.at2(t, c)) * q.s[t];
  return x;
}

QuantizedActs quantize_acts_per_token_int4(const Tensor& x) {
  return quantize_acts_rows(x, 7.0f, -7, 7);
}

// --- VSQuant/DoubleQuant-style two-level baseline --------------------------------

TwoLevelBaseline quantize_two_level_baseline(const Tensor& w, int group) {
  QS_CHECK_EQ(w.ndim(), 2);
  const int64_t n = w.rows(), k = w.cols();
  QS_CHECK_EQ(k % group, 0);
  const int64_t ng = k / group;
  TwoLevelBaseline out;
  out.group = group;
  out.s0 = Tensor({n});
  out.s1 = U8Tensor({n, ng});
  out.z = U8Tensor({n, ng});
  U8Tensor codes({n, k});
  Tensor fscales({n, ng});

  // Step 1: direct per-group asymmetric UINT4 with FP group scales.
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t g = 0; g < ng; ++g) {
      const int64_t base = g * group;
      float lo = w.at2(r, base), hi = lo;
      for (int64_t c = 1; c < group; ++c) {
        lo = std::min(lo, w.at2(r, base + c));
        hi = std::max(hi, w.at2(r, base + c));
      }
      lo = std::min(lo, 0.0f);
      hi = std::max(hi, 0.0f);
      float s = (hi - lo) / 15.0f;
      if (s <= 0.0f) s = 1.0f;
      const int z = clamp(round_half_away(-lo / s), 0, 15);
      fscales.at2(r, g) = s;
      out.z.at2(r, g) = static_cast<uint8_t>(z);
      for (int64_t c = 0; c < group; ++c) {
        codes.at2(r, base + c) =
            clamp_u4(round_half_away(w.at2(r, base + c) / s) + z);
      }
    }
    // Step 2: per-channel symmetric UINT8 quantization of the group scales.
    float smax = 0.0f;
    for (int64_t g = 0; g < ng; ++g) smax = std::max(smax, fscales.at2(r, g));
    float s0 = smax / 255.0f;
    if (s0 <= 0.0f) s0 = 1.0f;
    s0 = to_half_precision(s0);
    out.s0[r] = s0;
    for (int64_t g = 0; g < ng; ++g) {
      out.s1.at2(r, g) = static_cast<uint8_t>(
          clamp(round_half_away(fscales.at2(r, g) / s0), 0, 255));
    }
  }
  out.qw = pack_u4(codes);
  return out;
}

Tensor dequantize(const TwoLevelBaseline& q) {
  const int64_t n = q.qw.rows, k = q.qw.cols;
  Tensor w({n, k});
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t c = 0; c < k; ++c) {
      const int64_t g = c / q.group;
      const float s = float(q.s1.at2(r, g)) * q.s0[r];
      w.at2(r, c) = float(int(get_u4(q.qw, r, c)) - int(q.z.at2(r, g))) * s;
    }
  }
  return w;
}

}  // namespace qserve
