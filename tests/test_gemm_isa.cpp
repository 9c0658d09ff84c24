// Cross-ISA equivalence of the GEMM microkernel subsystem: the scalar, AVX2
// and AVX-512 VNNI register tiles must produce bitwise-identical INT32
// accumulators and FP16 outputs for every quant scheme at 1, 2 and 8
// threads, across m around the tile heights (token tails), panel counts
// that leave a partial panel block, k spanning several k-blocks with a
// short last block, mixed activation magnitudes (including rows whose codes
// clamp to -128), and both protective-range and naive-range (deliberate
// INT8 overflow) per-group weights. Every row's output is batch-invariant:
// the same bits alone as inside any stack. Also covers the QSERVE_ISA
// override plumbing and the FP16-weight gemm_fp16 (LM head): bitwise across
// ISA x threads x m, batch-invariant per row, and within a stated
// float-summation bound of gemm_f32_ref. The row entries around the tiles
// (the per-token activation quantizer and the FP16 epilogue) match the
// scalar reference bit for bit on every ISA, at every vector tail, on
// half-way products, NaN, inf, ±0 and subnormals; the epilogue's zero-point
// term is one fused multiply-add.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/half.h"
#include "harness.h"
#include "kernels/cpu/attention_kernel.h"
#include "kernels/cpu/microkernel.h"
#include "kernels/gemm.h"
#include "kernels/weight_layout.h"
#include "quant/quantize.h"

namespace qserve {
namespace {

using cpu::Isa;

// Activations spanning ~12 orders of magnitude across rows: tiny rows push
// the FP16 subnormal scale path where codes can clamp to -128, exercising
// the full operand range of the SIMD tricks.
Tensor random_acts(int64_t m, int64_t k, uint64_t seed) {
  Rng rng(seed);
  Tensor t({m, k});
  for (int64_t r = 0; r < m; ++r) {
    const float row_scale = std::pow(10.0f, float(r % 13) - 6.0f);
    for (int64_t c = 0; c < k; ++c)
      t.at2(r, c) = rng.heavy_tailed(row_scale);
  }
  return t;
}

Tensor random_weights(int64_t n, int64_t k, uint64_t seed) {
  Rng rng(seed);
  Tensor t({n, k});
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.heavy_tailed();
  return t;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const char* tag) {
  ASSERT_TRUE(a.same_shape(b)) << tag;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           sizeof(float) * static_cast<size_t>(a.numel())))
      << tag;
}

void expect_bitwise_equal(const I32Tensor& a, const I32Tensor& b,
                          const char* tag) {
  ASSERT_TRUE(a.same_shape(b)) << tag;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           sizeof(int32_t) * static_cast<size_t>(a.numel())))
      << tag;
}

// Rows [r0, r0 + m) of x.
Tensor take_rows(const Tensor& x, int64_t r0, int64_t m) {
  Tensor out({m, x.cols()});
  std::copy(x.row(r0), x.row(r0) + m * x.cols(), out.data());
  return out;
}

const int kThreadCounts[] = {1, 2, 8};

// The exact INT32 accumulators straight from the packed layout, one MAC at a
// time with no blocking: sum_c x[t, c] * code(r, c), where code(r, c) sits
// at data[p * panel_stride + ((c / 4) * nr + r % nr) * 4 + c % 4] for panel
// p = r / nr. Independent of the driver, so a blocking bug that every ISA
// shares still shows.
I32Tensor reference_acc(const QuantizedActs& x, const PackedGemmB& w) {
  I32Tensor acc({x.m(), w.n});
  for (int64_t t = 0; t < x.m(); ++t)
    for (int64_t r = 0; r < w.n; ++r) {
      const int8_t* panel = w.data.data() + (r / w.nr) * w.panel_stride();
      int32_t a = 0;
      for (int64_t c = 0; c < w.k; ++c) {
        const int8_t code =
            panel[((c / cpu::kKGroup) * w.nr + r % w.nr) * cpu::kKGroup +
                  c % cpu::kKGroup];
        a += int32_t(x.q.at2(t, c)) *
             (w.unsigned_codes ? int32_t(uint8_t(code)) : int32_t(code));
      }
      acc.at2(t, r) = a;
    }
  return acc;
}

// Pack `qw` for each supported ISA and run gemm_blocked + accumulators at
// every thread count, requiring bitwise identity with the one-thread scalar
// result, whose accumulators must equal reference_acc.
template <typename Weights>
void check_all_isas(const QuantizedActs& qx, const Weights& qw,
                    const char* tag) {
  Tensor y_scalar;
  I32Tensor acc_scalar;
  {
    ConfigGuard pin(Isa::kScalar, /*threads=*/1);
    const PackedGemmB packed =
        pack_gemm_b(qw, cpu::microkernel_for(Isa::kScalar).nr);
    y_scalar = gemm_blocked(qx, packed);
    acc_scalar = gemm_blocked_acc(qx, packed);
    expect_bitwise_equal(reference_acc(qx, packed), acc_scalar, tag);
  }
  for (Isa isa : supported_isas()) {
    ConfigGuard guard(isa);
    const PackedGemmB packed = pack_gemm_b(qw, cpu::microkernel_for(isa).nr);
    for (int n_threads : kThreadCounts) {
      set_num_threads(n_threads);
      SCOPED_TRACE(std::string(tag) + " isa=" + cpu::isa_name(isa) +
                   " threads=" + std::to_string(n_threads) +
                   " m=" + std::to_string(qx.m()) + " n=" +
                   std::to_string(packed.n) + " k=" + std::to_string(qx.k()));
      expect_bitwise_equal(y_scalar, gemm_blocked(qx, packed), tag);
      expect_bitwise_equal(acc_scalar, gemm_blocked_acc(qx, packed), tag);
    }
  }
}

struct Shape {
  int64_t m, n, k;
  int group;  // for per-group schemes; must divide k
};

// The register tiles are 4 x 4 panels of 16 rows (AVX-512), 2 x 2 panels of
// 8 rows (AVX2) and 4 x 4 panels of 8 rows (scalar); the driver's k-blocks
// are 1024 input channels.
const Shape kShapes[] = {
    {1, 33, 131, 131},     // odd n, odd (prime) k, group == k
    {7, 17, 96, 32},       // panel remainder rows, multiple groups
    {7, 64, 256, 128},     // aligned shape, two groups
    {64, 48, 132, 66},     // prefill-sized m, odd-ish n/k
    {5, 80, 1540, 140},    // two k-blocks; 1-token tail; 5 AVX-512 panels
    {13, 17, 2052, 114},   // three k-blocks, the last one k-group wide
    {130, 80, 1540, 140},  // m past 128 with a 2-token tail
    {3, 40, 1031, 1031},   // k padded to 1032: a 2-group last k-block
};

TEST(GemmIsaEquivalence, W8A8) {
  uint64_t seed = 100;
  for (const Shape& s : kShapes) {
    const auto qx = quantize_acts_per_token(random_acts(s.m, s.k, seed++));
    const auto qw = quantize_w8_per_channel(random_weights(s.n, s.k, seed++));
    check_all_isas(qx, qw, "w8a8");
  }
}

TEST(GemmIsaEquivalence, W4A8PerChannel) {
  uint64_t seed = 200;
  for (const Shape& s : kShapes) {
    const auto qx = quantize_acts_per_token(random_acts(s.m, s.k, seed++));
    const auto qw = quantize_w4_per_channel(random_weights(s.n, s.k, seed++));
    check_all_isas(qx, qw, "w4a8_per_channel");
  }
}

TEST(GemmIsaEquivalence, W4A8PerGroupProtectiveRange) {
  uint64_t seed = 300;
  for (const Shape& s : kShapes) {
    const auto qx = quantize_acts_per_token(random_acts(s.m, s.k, seed++));
    const auto qw = quantize_progressive(random_weights(s.n, s.k, seed++),
                                         {.group = s.group});
    check_all_isas(qx, qw, "w4a8_per_group");
  }
}

TEST(GemmIsaEquivalence, W4A8PerGroupNaiveRangeOverflowWraps) {
  // level1_range = 127 makes (q - z) * s1 overflow INT8 (the Fig. 6 accuracy
  // bug); the wrap must be identical on every ISA — including the -128 codes
  // that break vpmaddubsw-style sign-splitting tricks.
  uint64_t seed = 400;
  for (const Shape& s : kShapes) {
    const auto qx = quantize_acts_per_token(random_acts(s.m, s.k, seed++));
    const auto qw =
        quantize_progressive(random_weights(s.n, s.k, seed++),
                             {.group = s.group, .level1_range = 127});
    check_all_isas(qx, qw, "w4a8_per_group_naive");
  }
}

TEST(GemmIsaEquivalence, ModelLogitsBitwiseIdentical) {
  // End-to-end: a toy model quantized+packed under each ISA produces
  // bit-identical logits (attention/normalization are FP paths shared by all
  // ISAs; every INT8 GEMM goes through the dispatched blocked driver).
  const ModelWeights& weights = toy_weights(toy_config(2));
  std::vector<int> tokens;
  for (int i = 0; i < 12; ++i) tokens.push_back((7 * i + 3) % 512);

  Tensor ref;
  {
    ConfigGuard guard(Isa::kScalar);
    QuantizedModel qm(weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
    ref = qm.forward(tokens);
  }
  for (Isa isa : supported_isas()) {
    ConfigGuard guard(isa);
    QuantizedModel qm(weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
    SCOPED_TRACE(cpu::isa_name(isa));
    expect_bitwise_equal(ref, qm.forward(tokens), "model_logits");
  }
}

TEST(GemmIsaEquivalence, MismatchedPackWidthFallsBackCorrectly) {
  // Pack under one ISA, run under another: the driver must fall back to the
  // scalar microkernel (any nr) and still match bitwise.
  const auto qx = quantize_acts_per_token(random_acts(5, 96, 900));
  const auto qw = quantize_w8_per_channel(random_weights(24, 96, 901));
  Tensor ref;
  PackedGemmB packed;
  {
    ConfigGuard guard(Isa::kScalar);
    packed = pack_gemm_b(qw, cpu::microkernel_for(Isa::kScalar).nr);
    ref = gemm_blocked(qx, packed);
  }
  for (Isa isa : supported_isas()) {
    ConfigGuard guard(isa);
    SCOPED_TRACE(cpu::isa_name(isa));
    expect_bitwise_equal(ref, gemm_blocked(qx, packed), "fallback");
  }
}

TEST(GemmIsaEquivalence, RowsAreBatchInvariant) {
  // Each row of a 133-row pool computed ALONE on the scalar kernel at one
  // thread; every stack of m rows, taken at an m-dependent offset of the
  // pool, under every ISA x thread count must reproduce those rows bit for
  // bit, whichever tile (or tile tail) a row lands in. servebench's
  // solo-replay correctness gate rests on this batch invariance.
  const int64_t pool = 133, n = 80, k = 1540;
  const Tensor x = random_acts(pool, k, 970);
  const Tensor w = random_weights(n, k, 971);
  const auto per_group = quantize_progressive(w, {.group = 140});
  const auto per_channel = quantize_w4_per_channel(w);
  const auto run = [&](const Tensor& rows, bool channel) {
    const QuantizedActs qx = quantize_acts_per_token(rows);
    const int nr = cpu::microkernel_for(cpu::active_isa()).nr;
    return gemm_blocked(qx, channel ? pack_gemm_b(per_channel, nr)
                                    : pack_gemm_b(per_group, nr));
  };
  for (bool channel : {false, true}) {
    Tensor solo({pool, n});
    {
      ConfigGuard pin(Isa::kScalar, /*threads=*/1);
      for (int64_t r = 0; r < pool; ++r) {
        const Tensor y = run(take_rows(x, r, 1), channel);
        std::copy(y.data(), y.data() + n, solo.row(r));
      }
    }
    for (Isa isa : supported_isas()) {
      ConfigGuard isa_guard(isa);
      for (int n_threads : kThreadCounts) {
        set_num_threads(n_threads);
        for (int64_t m : {1, 3, 4, 5, 13, 128}) {
          const int64_t r0 = (7 * m) % (pool - m + 1);
          SCOPED_TRACE(std::string(channel ? "per_channel" : "per_group") +
                       " isa=" + cpu::isa_name(isa) +
                       " threads=" + std::to_string(n_threads) +
                       " m=" + std::to_string(m) + " r0=" +
                       std::to_string(r0));
          expect_bitwise_equal(take_rows(solo, r0, m),
                               run(take_rows(x, r0, m), channel), "rows");
        }
      }
    }
  }
}

// --- FP16-weight GEMM (LM head) ----------------------------------------------

// Vocab sizes with a 2-row tail panel and a lone 1-row panel, and k with a
// 4-element (k = 100) and an 8-element (k = 520) lane tail past the 16-lane
// blocks, plus the lane-aligned servebench width.
struct Fp16Shape {
  int64_t n, k;
};
const Fp16Shape kFp16Shapes[] = {{2050, 100}, {97, 520}, {33, 512}};
const int64_t kFp16Ms[] = {1, 3, 4, 17, 128};

TEST(GemmFp16, BitwiseAcrossIsaThreadsAndBatch) {
  // Reference: every row of a 133-row pool computed ALONE on the scalar
  // kernel at one thread, and pinned to the canonical order: each logit is
  // the scalar qk_dot of its activation row against its decoded weight row.
  // Each stack of m rows — taken at an m-dependent offset of the pool —
  // under every ISA x thread count must reproduce those rows bit for bit: no
  // ISA, pool size, panel split or neighbouring row may move a logit.
  // servebench's solo-replay correctness gate rests on this batch
  // invariance.
  uint64_t seed = 1000;
  const cpu::AttentionKernels& scalar = cpu::attention_kernel_for(Isa::kScalar);
  for (const Fp16Shape& s : kFp16Shapes) {
    const int64_t pool = 133;
    const Tensor x = random_acts(pool, s.k, seed++);
    const U16Tensor w = to_half_bits(random_weights(s.n, s.k, seed++));
    Tensor solo({pool, s.n}), canonical({pool, s.n});
    {
      ConfigGuard pin(Isa::kScalar, /*threads=*/1);
      for (int64_t r = 0; r < pool; ++r) {
        const Tensor y = gemm_fp16(take_rows(x, r, 1), w);
        std::copy(y.data(), y.data() + s.n, solo.row(r));
      }
    }
    std::vector<float> wrow(static_cast<size_t>(s.k));
    for (int64_t j = 0; j < s.n; ++j) {
      for (int64_t c = 0; c < s.k; ++c)
        wrow[static_cast<size_t>(c)] = detail::half_bits_to_float(w.at2(j, c));
      for (int64_t r = 0; r < pool; ++r)
        scalar.qk_dot(x.row(r), wrow.data(), 1, static_cast<int>(s.k),
                      &canonical.at2(r, j));
    }
    expect_bitwise_equal(canonical, solo, "fp16 canonical order");
    for (Isa isa : supported_isas()) {
      ConfigGuard isa_guard(isa);
      for (int threads : {1, 2, 8}) {
        set_num_threads(threads);
        for (int64_t m : kFp16Ms) {
          const int64_t r0 = (7 * m) % (pool - m + 1);
          SCOPED_TRACE("n=" + std::to_string(s.n) + " k=" +
                       std::to_string(s.k) + " isa=" + cpu::isa_name(isa) +
                       " threads=" + std::to_string(threads) +
                       " m=" + std::to_string(m) + " r0=" +
                       std::to_string(r0));
          expect_bitwise_equal(take_rows(solo, r0, m),
                               gemm_fp16(take_rows(x, r0, m), w), "fp16");
        }
      }
    }
  }
}

TEST(GemmFp16, WithinSummationBoundOfF32Reference) {
  // Same binary16 weights, decoded to floats, through the double-accumulating
  // reference. gemm_fp16 sums in float: each of the 16 lanes chains
  // ceil(k / 16) products, then 4 fold adds, every step rounded separately
  // (no FMA). The standard recursive-summation bound for a chain of
  // depth d = ceil(k / 16) + 5 (the +1 is the product's own rounding) is
  //   |fl(dot) - dot| <= gamma_d * sum_c |x_c * w_c|,  gamma_d = d*u/(1-d*u)
  // with u = 2^-24; the reference's own final float rounding adds u * |ref|.
  uint64_t seed = 2000;
  const double u = std::ldexp(1.0, -24);
  for (const Fp16Shape& s : kFp16Shapes) {
    const int64_t m = 17;
    const Tensor x = random_acts(m, s.k, seed++);
    const U16Tensor w = to_half_bits(random_weights(s.n, s.k, seed++));
    Tensor wf({s.n, s.k});
    for (int64_t i = 0; i < wf.numel(); ++i)
      wf[i] = detail::half_bits_to_float(w[i]);
    const Tensor ref = gemm_f32_ref(x, wf);
    const Tensor y = gemm_fp16(x, w);
    const double d = double((s.k + 15) / 16 + 5);
    const double gamma = d * u / (1.0 - d * u);
    double worst = 0.0;  // largest |delta| / bound seen
    for (int64_t t = 0; t < m; ++t)
      for (int64_t r = 0; r < s.n; ++r) {
        double abs_sum = 0.0;
        for (int64_t c = 0; c < s.k; ++c)
          abs_sum += std::abs(double(x.at2(t, c)) * double(wf.at2(r, c)));
        const double ref_v = ref.at2(t, r);
        const double bound = gamma * abs_sum + u * std::abs(ref_v);
        const double delta = std::abs(double(y.at2(t, r)) - ref_v);
        ASSERT_LE(delta, bound) << "n=" << s.n << " k=" << s.k << " t=" << t
                                << " r=" << r;
        if (bound > 0.0) worst = std::max(worst, delta / bound);
      }
    // Float summation really differs from double somewhere: the kernel is
    // not silently the reference.
    EXPECT_GT(worst, 0.0) << "k=" << s.k;
  }
}

TEST(GemmFp16, RejectsMismatchedWidth) {
  const U16Tensor w = to_half_bits(random_weights(8, 32, 3000));
  EXPECT_THROW(gemm_fp16(random_acts(2, 31, 3001), w), CheckError);
}

// --- row entries: activation quantizer and FP16 epilogue ---------------------

// Row lengths around both vector widths (8 and 16 lanes) plus the model's.
const int64_t kRowLengths[] = {1, 7, 8, 9, 15, 16, 17, 33, 512, 1536};

uint32_t bits_of(float f) { return detail::bit_cast<uint32_t>(f); }

float step_ulps(float x, int n) {
  for (; n > 0; --n) x = std::nextafter(x, std::numeric_limits<float>::max());
  for (; n < 0; ++n) x = std::nextafter(x, -std::numeric_limits<float>::max());
  return x;
}

// Whether round_half_away(x * inv) changes when v + 0.5 (or v - 0.5) is
// fused with the multiply. The rows below must hold such codes on both
// sides of zero, so a kernel that fuses either cannot match the reference.
bool fusing_changes_code(float x, float inv) {
  volatile float v = x * inv;  // rounded on its own, as the reference does
  const float unfused = v >= 0.0f ? std::floor(v + 0.5f) : std::ceil(v - 0.5f);
  const float fused = v >= 0.0f ? std::floor(std::fma(x, inv, 0.5f))
                                : std::ceil(std::fma(x, inv, -0.5f));
  return unfused != fused && unfused == unfused;  // NaN never differs
}

// Rows of length k that each stress one quantizer rule.
std::vector<std::vector<float>> quantizer_rows(int64_t k, uint64_t seed) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kSub = std::numeric_limits<float>::denorm_min();
  Rng rng(seed);
  std::vector<std::vector<float>> rows;
  const auto add = [&](const auto& value_at) {
    std::vector<float> row(static_cast<size_t>(k));
    for (int64_t c = 0; c < k; ++c) row[static_cast<size_t>(c)] = value_at(c);
    rows.push_back(std::move(row));
  };
  // Exactly half-way products: abs-max 127 * 2^-3 gives the scale 2^-3, so
  // x = (n + 0.5) * 2^-3 makes x * (1 / scale) exactly n + 0.5.
  add([&](int64_t c) {
    return c == k / 2 ? -127.0f * 0.125f
                      : (float((c * 37) % 255 - 127) + 0.5f) * 0.125f;
  });
  // Near half-way products under scales with inexact reciprocals: runs of x
  // stepping ulp by ulp across ±0.5 * s (where v ± 0.5 leaves v's binade, so
  // a fused multiply-add rounds differently) and across ±(n + 0.5) * s.
  for (int j = 0; j < 6; ++j) {
    const float s = to_half_precision(0.1f + 0.0371f * float(j));
    add([&](int64_t c) {
      if (c == 0) return 127.0f * s;
      const int64_t run = c / 64;
      const float n = run % 4 < 2 ? 0.0f : float((c * 7) % 9);
      const float x = step_ulps((n + 0.5f) * s, int(c % 64) - 32);
      return run % 2 ? -x : x;
    });
  }
  // ±0, NaN, subnormals and normals, then the same with ±inf.
  const float specials[] = {0.0f,  -0.0f, kNan,  -kNan, kSub,
                            -kSub, 1e-40f, -3.0f, 2.5f,  0.75f};
  add([&](int64_t c) { return specials[c % 10]; });
  add([&](int64_t c) { return c % 5 == 3 ? (c % 2 ? kInf : -kInf)
                                         : specials[c % 10]; });
  // NaN behind the row's outlier in the same vector lane (every 8th
  // element), so a NaN that entered a lane's running max would drop it.
  add([&](int64_t c) {
    if (c == 0) return 100.0f;
    return c % 8 == 0 ? kNan : rng.normal();
  });
  add([&](int64_t c) { return c == k - 1 ? kNan : rng.normal(); });
  // All-zero rows (the scale falls back to 1 / 127 in FP16).
  add([](int64_t) { return 0.0f; });
  add([](int64_t) { return -0.0f; });
  // Single outliers over zeros and over noise.
  add([&](int64_t c) { return c == (k * 2) / 3 ? 1e30f : 0.0f; });
  add([&](int64_t c) { return c == k / 3 ? -5e3f : rng.normal(); });
  // Scales in FP16's subnormal range and below it, and past its max.
  for (const float mag : {1e-5f, 3e-7f, 1e-12f, 1e36f})
    add([&](int64_t) { return mag * rng.normal(); });
  add([&](int64_t) { return rng.heavy_tailed(3.0f); });
  return rows;
}

TEST(RowKernelIsaEquivalence, QuantizeRowMatchesScalarBitForBit) {
  const cpu::Microkernel& ref = cpu::microkernel_for(Isa::kScalar);
  const struct {
    float qmax;
    int lo, hi;
  } ranges[] = {{127.0f, -128, 127}, {7.0f, -7, 7}};
  int fused_differs[2] = {0, 0};  // codes >= 0, codes < 0
  uint64_t seed = 4000;
  for (const int64_t k : kRowLengths) {
    for (const auto& row : quantizer_rows(k, seed++)) {
      for (const auto& range : ranges) {
        std::vector<int8_t> q_ref(static_cast<size_t>(k));
        float s_ref = 0.0f, sum_ref = 0.0f;
        ref.quantize_row(row.data(), k, range.qmax, range.lo, range.hi,
                         q_ref.data(), &s_ref, &sum_ref);
        if (sum_ref != sum_ref) {
          EXPECT_EQ(0xFFC00000u, bits_of(sum_ref));  // kRowNan
        }
        for (const float x : row)
          fused_differs[x < 0.0f] += fusing_changes_code(x, 1.0f / s_ref);
        for (const Isa isa : supported_isas()) {
          SCOPED_TRACE(std::string(cpu::isa_name(isa)) + " k=" +
                       std::to_string(k) + " qmax=" +
                       std::to_string(range.qmax));
          std::vector<int8_t> q(static_cast<size_t>(k), 99);
          float s = -1.0f, sum = -1.0f;
          cpu::microkernel_for(isa).quantize_row(row.data(), k, range.qmax,
                                                 range.lo, range.hi, q.data(),
                                                 &s, &sum);
          EXPECT_EQ(bits_of(s_ref), bits_of(s));
          EXPECT_EQ(bits_of(sum_ref), bits_of(sum));
          EXPECT_EQ(q_ref, q);
        }
      }
    }
  }
  EXPECT_GT(fused_differs[0], 0) << "no input where a fused v + 0.5 shows";
  EXPECT_GT(fused_differs[1], 0) << "no input where a fused v - 0.5 shows";
}

// Epilogue tails with and without the zero-point term; NaN and inf in the
// accumulator scales, the token scale, the token sum and the z*s terms. The
// NaNs have both signs and payloads FP16 would keep; every NaN output must
// be the one kRowNan.
TEST(RowKernelIsaEquivalence, ScaleRowMatchesScalarBitForBit) {
  const float kNan = detail::bit_cast<float>(0x7FE5A5A5u);
  const float kNegNan = detail::bit_cast<float>(0xFFD0F00Du);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const cpu::Microkernel& ref = cpu::microkernel_for(Isa::kScalar);
  const float token_scales[] = {0.0123f, 3e-3f, kNan, kInf, 0.0f};
  const float token_sums[] = {3.5f, -1e4f, kNegNan, kInf};
  Rng rng(4100);
  for (const int64_t n : kRowLengths) {
    const size_t un = static_cast<size_t>(n);
    std::vector<int32_t> acc(un);
    std::vector<float> scale(un), zp(un);
    for (size_t i = 0; i < un; ++i) {
      const int kind = static_cast<int>(i % 11);
      acc[i] = kind == 0   ? std::numeric_limits<int32_t>::min()
               : kind == 1 ? std::numeric_limits<int32_t>::max()
               : kind == 2 ? 0
                           : rng.uniform_int(-(1 << 20), 1 << 20);
      // Outputs past FP16's max, in its subnormal range, and NaN / inf.
      scale[i] = kind == 3   ? 40.0f
                 : kind == 4 ? 1e-9f
                 : kind == 5 ? kNan
                 : kind == 6 ? -kInf
                             : rng.uniform(1e-3f, 2e-2f);
      zp[i] = kind == 7 ? kNegNan : kind == 8 ? kInf : rng.uniform(-2.0f, 2.0f);
    }
    for (const float sx : token_scales)
      for (const float ts : token_sums)
        for (const bool with_zp : {false, true}) {
          const float* zp_term = with_zp ? zp.data() : nullptr;
          std::vector<float> y_ref(un);
          ref.scale_row(acc.data(), n, sx, ts, scale.data(), zp_term,
                        y_ref.data());
          for (const float y : y_ref) {
            if (y != y) {
              EXPECT_EQ(0xFFC00000u, bits_of(y));
            }
          }
          for (const Isa isa : supported_isas()) {
            std::vector<float> y(un + 1, -7.0f);  // one guard element
            cpu::microkernel_for(isa).scale_row(acc.data(), n, sx, ts,
                                                scale.data(), zp_term,
                                                y.data());
            EXPECT_EQ(0, std::memcmp(y_ref.data(), y.data(),
                                     un * sizeof(float)))
                << cpu::isa_name(isa) << " n=" << n << " sx=" << sx
                << " token_sum=" << ts << " zp=" << with_zp;
            EXPECT_EQ(-7.0f, y[un]) << cpu::isa_name(isa) << " n=" << n;
          }
        }
  }
}

// The per-channel zero-point term -token_sum * (z*s) is one fused
// multiply-add in every ISA and every build (the epilogue's bits must not
// depend on whether -march=native lets the compiler contract it). The inputs
// nearly cancel, so a separately rounded product changes the FP16 output.
TEST(RowKernelIsaEquivalence, EpilogueFusesTheZeroPointTerm) {
  constexpr int64_t n = 1536;
  const float ts = 37.3125f;
  Rng rng(4200);
  std::vector<int32_t> acc(n);
  std::vector<float> scale(n, 1.0f), zp(n), fused(n);
  int unfused_differs = 0;
  for (int64_t i = 0; i < n; ++i) {
    zp[i] = rng.uniform(-30.0f, 30.0f);
    acc[i] = static_cast<int32_t>(std::lround(ts * zp[i]));
    const float v = float(acc[i]) * 1.0f * 1.0f;
    fused[i] = to_half_precision(std::fma(-ts, zp[i], v));
    volatile float product = ts * zp[i];  // rounded on its own
    unfused_differs +=
        bits_of(to_half_precision(v - product)) != bits_of(fused[i]);
  }
  ASSERT_GT(unfused_differs, 0);
  for (const Isa isa : supported_isas()) {
    std::vector<float> y(n);
    cpu::microkernel_for(isa).scale_row(acc.data(), n, 1.0f, ts,
                                        scale.data(), zp.data(), y.data());
    EXPECT_EQ(0, std::memcmp(fused.data(), y.data(), n * sizeof(float)))
        << cpu::isa_name(isa);
  }

  // The GEMM epilogue is that entry: per-channel W4A8 outputs are the fused
  // form of their own accumulators.
  const QuantizedActs qx = quantize_acts_per_token(random_acts(5, 260, 4201));
  const W4PerChannel w = quantize_w4_per_channel(random_weights(40, 260, 4202));
  for (const Isa isa : supported_isas()) {
    ConfigGuard guard(isa);
    const PackedGemmB packed = pack_gemm_b(w, cpu::microkernel_for(isa).nr);
    ASSERT_FALSE(packed.zp_term.empty());
    const I32Tensor a = gemm_blocked_acc(qx, packed);
    const Tensor y = gemm_blocked(qx, packed);
    for (int64_t t = 0; t < qx.m(); ++t)
      for (int64_t r = 0; r < packed.n; ++r) {
        const size_t ur = static_cast<size_t>(r);
        const float v = float(a.at2(t, r)) * qx.s[t] * packed.scale[ur];
        EXPECT_EQ(bits_of(to_half_precision(std::fma(
                      -qx.token_sum[t], packed.zp_term[ur], v))),
                  bits_of(y.at2(t, r)))
            << cpu::isa_name(isa) << " t=" << t << " r=" << r;
      }
  }
}

// --- dispatch plumbing -------------------------------------------------------

TEST(IsaDispatch, ParseAndNames) {
  EXPECT_EQ(Isa::kScalar, cpu::parse_isa("scalar"));
  EXPECT_EQ(Isa::kAvx2, cpu::parse_isa("avx2"));
  EXPECT_EQ(Isa::kAvx512, cpu::parse_isa("avx512"));
  EXPECT_EQ(Isa::kAvx512, cpu::parse_isa("avx512vnni"));
  EXPECT_EQ(std::nullopt, cpu::parse_isa("neon"));
  EXPECT_EQ(std::nullopt, cpu::parse_isa(""));
  EXPECT_EQ(std::nullopt, cpu::parse_isa(nullptr));
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512})
    EXPECT_EQ(isa, cpu::parse_isa(cpu::isa_name(isa)));
}

TEST(IsaDispatch, EnvOverrideForcesIsaAndClampsToDetected) {
  cpu::clear_isa_override();
  ASSERT_EQ(0, setenv("QSERVE_ISA", "scalar", 1));
  EXPECT_EQ(Isa::kScalar, cpu::active_isa());
  // Requests above the host's capability clamp down instead of faulting.
  ASSERT_EQ(0, setenv("QSERVE_ISA", "avx512", 1));
  EXPECT_EQ(static_cast<int>(cpu::detected_isa()) >=
                    static_cast<int>(Isa::kAvx512)
                ? Isa::kAvx512
                : cpu::detected_isa(),
            cpu::active_isa());
  // Unrecognized values fall back to detection.
  ASSERT_EQ(0, setenv("QSERVE_ISA", "quantum", 1));
  EXPECT_EQ(cpu::detected_isa(), cpu::active_isa());
  ASSERT_EQ(0, unsetenv("QSERVE_ISA"));
  EXPECT_EQ(cpu::detected_isa(), cpu::active_isa());
}

TEST(IsaDispatch, SetIsaWinsOverEnv) {
  ASSERT_EQ(0, setenv("QSERVE_ISA", "avx2", 1));
  {
    ConfigGuard guard(Isa::kScalar);
    EXPECT_EQ(Isa::kScalar, cpu::active_isa());
  }
  ASSERT_EQ(0, unsetenv("QSERVE_ISA"));
}

TEST(IsaDispatch, MicrokernelTableIsConsistent) {
  for (Isa isa : supported_isas()) {
    const cpu::Microkernel& mk = cpu::microkernel_for(isa);
    EXPECT_EQ(isa, mk.isa) << cpu::isa_name(isa);
    EXPECT_GT(mk.nr, 0);
    EXPECT_GT(mk.mr, 0);
    EXPECT_GT(mk.np, 0);
    EXPECT_NE(nullptr, mk.tile);
    EXPECT_NE(nullptr, mk.quantize_row);
    EXPECT_NE(nullptr, mk.scale_row);
  }
  // Unsupported ISAs resolve to a usable kernel rather than nullptr.
  const cpu::Microkernel& fallback = cpu::microkernel_for(Isa::kAvx512);
  EXPECT_NE(nullptr, fallback.tile);
}

}  // namespace
}  // namespace qserve
