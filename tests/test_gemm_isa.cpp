// Cross-ISA equivalence of the GEMM microkernel subsystem: the scalar, AVX2
// and AVX-512 VNNI paths must produce bitwise-identical INT32 accumulators
// and FP16 outputs for every quant scheme, across m in {1, 7, 64}, odd n/k,
// mixed activation magnitudes (including rows whose codes clamp to -128),
// and both protective-range and naive-range (deliberate INT8 overflow)
// per-group weights. Also covers the QSERVE_ISA override plumbing, the
// streamed kernel's single-token bypass, and the FP16-weight gemm_fp16 (LM
// head): bitwise across ISA x threads x m, batch-invariant per row, and
// within a stated float-summation bound of gemm_f32_ref.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/half.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "kernels/cpu/attention_kernel.h"
#include "kernels/cpu/isa.h"
#include "kernels/cpu/microkernel.h"
#include "kernels/gemm.h"
#include "kernels/weight_layout.h"
#include "model/quantized_model.h"
#include "model/weights.h"
#include "quant/quantize.h"

namespace qserve {
namespace {

using cpu::Isa;

// RAII: pin an ISA for a scope, always return control to env/detection.
struct IsaGuard {
  explicit IsaGuard(Isa isa) { cpu::set_isa(isa); }
  ~IsaGuard() { cpu::clear_isa_override(); }
};

std::vector<Isa> supported_isas() {
  std::vector<Isa> v{Isa::kScalar};
  if (static_cast<int>(cpu::detected_isa()) >= static_cast<int>(Isa::kAvx2))
    v.push_back(Isa::kAvx2);
  if (static_cast<int>(cpu::detected_isa()) >= static_cast<int>(Isa::kAvx512))
    v.push_back(Isa::kAvx512);
  return v;
}

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

// Run `gemm(qx)` (a plain-API kernel) and `pack()` + accumulators under every
// supported ISA and require bitwise identity with the scalar result.
template <typename Weights, typename GemmFn>
void check_all_isas(const QuantizedActs& qx, const Weights& qw,
                    const GemmFn& gemm, const char* tag) {
  Tensor y_scalar;
  I32Tensor acc_scalar;
  {
    IsaGuard guard(Isa::kScalar);
    y_scalar = gemm(qx, qw);
    acc_scalar = gemm_blocked_acc(
        qx, pack_gemm_b(qw, cpu::microkernel_for(Isa::kScalar).nr));
  }
  for (Isa isa : supported_isas()) {
    IsaGuard guard(isa);
    const Tensor y = gemm(qx, qw);
    const I32Tensor acc =
        gemm_blocked_acc(qx, pack_gemm_b(qw, cpu::microkernel_for(isa).nr));
    SCOPED_TRACE(std::string(tag) + " isa=" + cpu::isa_name(isa));
    expect_bitwise_equal(y_scalar, y, tag);
    expect_bitwise_equal(acc_scalar, acc, tag);
  }
}

struct Shape {
  int64_t m, n, k;
  int group;  // for per-group schemes; must divide k
};

const Shape kShapes[] = {
    {1, 33, 131, 131},   // odd n, odd (prime) k, group == k
    {7, 17, 96, 32},     // panel remainder rows, multiple groups
    {7, 64, 256, 128},   // aligned shape, two groups
    {64, 48, 132, 66},   // prefill-sized m, odd-ish n/k
};

TEST(GemmIsaEquivalence, W8A8) {
  uint64_t seed = 100;
  for (const Shape& s : kShapes) {
    const auto qx = quantize_acts_per_token(random_acts(s.m, s.k, seed++));
    const auto qw = quantize_w8_per_channel(random_weights(s.n, s.k, seed++));
    check_all_isas(qx, qw,
                   [](const QuantizedActs& x, const W8PerChannel& w) {
                     return gemm_w8a8(x, w);
                   },
                   "w8a8");
  }
}

TEST(GemmIsaEquivalence, W4A8PerChannel) {
  uint64_t seed = 200;
  for (const Shape& s : kShapes) {
    const auto qx = quantize_acts_per_token(random_acts(s.m, s.k, seed++));
    const auto qw = quantize_w4_per_channel(random_weights(s.n, s.k, seed++));
    check_all_isas(qx, qw,
                   [](const QuantizedActs& x, const W4PerChannel& w) {
                     return gemm_w4a8_per_channel(x, w);
                   },
                   "w4a8_per_channel");
  }
}

TEST(GemmIsaEquivalence, W4A8PerGroupProtectiveRange) {
  uint64_t seed = 300;
  for (const Shape& s : kShapes) {
    const auto qx = quantize_acts_per_token(random_acts(s.m, s.k, seed++));
    const auto qw = quantize_progressive(random_weights(s.n, s.k, seed++),
                                         {.group = s.group});
    check_all_isas(qx, qw,
                   [](const QuantizedActs& x, const W4PerGroup& w) {
                     return gemm_w4a8_per_group(x, w);
                   },
                   "w4a8_per_group");
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
    check_all_isas(qx, qw,
                   [](const QuantizedActs& x, const W4PerGroup& w) {
                     return gemm_w4a8_per_group(x, w);
                   },
                   "w4a8_per_group_naive");
  }
}

TEST(GemmIsaEquivalence, ModelLogitsBitwiseIdentical) {
  // End-to-end: a toy model quantized+packed under each ISA produces
  // bit-identical logits (attention/normalization are FP paths shared by all
  // ISAs; every INT8 GEMM goes through the dispatched blocked driver).
  const ModelWeights weights = make_synthetic_weights(toy_config(2));
  std::vector<int> tokens;
  for (int i = 0; i < 12; ++i) tokens.push_back((7 * i + 3) % 512);

  Tensor ref;
  {
    IsaGuard guard(Isa::kScalar);
    QuantizedModel qm(weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
    ref = qm.forward(tokens);
  }
  for (Isa isa : supported_isas()) {
    IsaGuard guard(isa);
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
    IsaGuard guard(Isa::kScalar);
    ref = gemm_w8a8(qx, qw);
    packed = pack_gemm_b(qw, cpu::microkernel_for(Isa::kScalar).nr);
  }
  for (Isa isa : supported_isas()) {
    IsaGuard guard(isa);
    SCOPED_TRACE(cpu::isa_name(isa));
    expect_bitwise_equal(ref, gemm_blocked(qx, packed), "fallback");
  }
}

TEST(GemmIsaEquivalence, StreamedM1BypassMatchesStreamWalk) {
  // Above the bypass threshold the streamed kernel reroutes m == 1 calls to
  // the plain (blocked) kernel; below it, it walks the stream. Both paths
  // must agree bitwise with the plain kernel (n, k multiples of 32 as the
  // stream layout requires). 128x128 = 16384 elements hits the threshold.
  for (int64_t n : {64, 128}) {
    const int64_t k = 128;
    const auto qx = quantize_acts_per_token(random_acts(1, k, 950 + n));
    const auto qw =
        quantize_progressive(random_weights(n, k, 960 + n), {.group = 128});
    const auto stream = reorder_w4_for_compute(qw.qw);
    const auto meta = reorder_group_meta(qw);
    const Tensor plain = gemm_w4a8_per_group(qx, qw);
    const Tensor streamed = gemm_w4a8_per_group_streamed(qx, qw, stream, meta);
    SCOPED_TRACE(n);
    expect_bitwise_equal(plain, streamed, "streamed_m1");
  }
}

// --- FP16-weight GEMM (LM head) ----------------------------------------------

struct ThreadGuard {
  explicit ThreadGuard(int n) { set_num_threads(n); }
  ~ThreadGuard() { set_num_threads(0); }
};

// Rows [r0, r0 + m) of x.
Tensor take_rows(const Tensor& x, int64_t r0, int64_t m) {
  Tensor out({m, x.cols()});
  std::copy(x.row(r0), x.row(r0) + m * x.cols(), out.data());
  return out;
}

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
      IsaGuard isa(Isa::kScalar);
      ThreadGuard threads(1);
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
      IsaGuard isa_guard(isa);
      for (int threads : {1, 2, 8}) {
        ThreadGuard thread_guard(threads);
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
    IsaGuard guard(Isa::kScalar);
    EXPECT_EQ(Isa::kScalar, cpu::active_isa());
  }
  ASSERT_EQ(0, unsetenv("QSERVE_ISA"));
}

TEST(IsaDispatch, MicrokernelTableIsConsistent) {
  for (Isa isa : supported_isas()) {
    const cpu::Microkernel& mk = cpu::microkernel_for(isa);
    EXPECT_EQ(isa, mk.isa) << cpu::isa_name(isa);
    EXPECT_GT(mk.nr, 0);
    EXPECT_NE(nullptr, mk.dot_s8);
    EXPECT_NE(nullptr, mk.dot_u4);
  }
  // Unsupported ISAs resolve to a usable kernel rather than nullptr.
  const cpu::Microkernel& fallback = cpu::microkernel_for(Isa::kAvx512);
  EXPECT_NE(nullptr, fallback.dot_s8);
}

}  // namespace
}  // namespace qserve
