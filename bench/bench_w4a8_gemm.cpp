// Google-benchmark microbenchmarks of the CPU kernel implementations: the
// pre-packed W4A8 GEMM the model layers run, the baselines it is compared
// against, and the RLP dequantization primitives. These
// measure the *reproduction's* CPU kernels — wall-clock GPU claims live in
// the simulator benches.
//
// Invoked with `--json <path>` it instead runs a fixed decode/prefill shape
// matrix over every supported ISA (scalar + the host's best) on pre-packed
// weights and writes machine-readable records (GOPS, GB/s, shape) — the
// artifact bench/check_regression.py compares against bench/baseline.json.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/half.h"
#include "common/rng.h"
#include "kernels/cpu/isa.h"
#include "kernels/cpu/microkernel.h"
#include "kernels/gemm.h"
#include "kernels/rlp.h"
#include "kernels/weight_layout.h"
#include "quant/quantize.h"

namespace qserve {
namespace {

struct GemmSetup {
  Tensor x, w;
  QuantizedActs qx, qx4;
  W4PerGroup w4g;
  W4A4PerGroup w44;

  GemmSetup(int64_t m, int64_t n, int64_t k) {
    Rng rng(1);
    x = Tensor({m, k});
    w = Tensor({n, k});
    for (int64_t i = 0; i < x.numel(); ++i) x[i] = rng.normal();
    for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal();
    qx = quantize_acts_per_token(x);
    qx4 = quantize_acts_per_token_int4(x);
    w4g = quantize_progressive(w, {.group = 128});
    w44 = quantize_w4a4_per_group(w, 128);
  }
};

const GemmSetup& setup() {
  static GemmSetup* s = new GemmSetup(8, 256, 512);
  return *s;
}

// Pre-packed blocked driver (what the model layers run): pack once, then
// GEMM.
void BM_GemmW4A8PerGroupPacked(benchmark::State& state) {
  const auto& s = setup();
  const auto packed =
      pack_gemm_b(s.w4g, cpu::microkernel_for(cpu::active_isa()).nr);
  for (auto _ : state)
    benchmark::DoNotOptimize(gemm_blocked(s.qx, packed));
}
BENCHMARK(BM_GemmW4A8PerGroupPacked);

void BM_GemmW4A8PerGroupPackedScalarIsa(benchmark::State& state) {
  const auto& s = setup();
  cpu::set_isa(cpu::Isa::kScalar);
  const auto packed =
      pack_gemm_b(s.w4g, cpu::microkernel_for(cpu::active_isa()).nr);
  for (auto _ : state)
    benchmark::DoNotOptimize(gemm_blocked(s.qx, packed));
  cpu::clear_isa_override();
}
BENCHMARK(BM_GemmW4A8PerGroupPackedScalarIsa);

void BM_GemmW4A4Atom(benchmark::State& state) {
  const auto& s = setup();
  for (auto _ : state)
    benchmark::DoNotOptimize(gemm_w4a4_atom(s.qx4, s.w44));
}
BENCHMARK(BM_GemmW4A4Atom);

void BM_GemmF32Reference(benchmark::State& state) {
  const auto& s = setup();
  for (auto _ : state) benchmark::DoNotOptimize(gemm_f32_ref(s.x, s.w));
}
BENCHMARK(BM_GemmF32Reference);

// The FP16 LM head at servebench's shape (k = hidden 512, n = vocab 2048)
// over m logit rows: gemm_fp16 on binary16 vocab panels against the
// double-accumulating reference on the same (FP16-rounded) weights. The
// `ops` counter is the rate of 2*m*n*k operations per call.
struct HeadSetup {
  Tensor x, w;
  U16Tensor w16;

  explicit HeadSetup(int64_t m) {
    constexpr int64_t kHidden = 512, kVocab = 2048;
    Rng rng(3);
    x = Tensor({m, kHidden});
    w = Tensor({kVocab, kHidden});
    for (int64_t i = 0; i < x.numel(); ++i) x[i] = rng.normal();
    for (int64_t i = 0; i < w.numel(); ++i)
      w[i] = to_half_precision(rng.normal());
    w16 = to_half_bits(w);
  }
};

template <typename Fn>
void run_head(benchmark::State& state, const Fn& gemm) {
  const HeadSetup s(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(gemm(s));
  state.counters["ops"] = benchmark::Counter(
      2.0 * double(s.x.rows()) * double(s.w.rows()) * double(s.w.cols()),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_GemmF32ReferenceHead(benchmark::State& state) {
  run_head(state, [](const HeadSetup& s) { return gemm_f32_ref(s.x, s.w); });
}
BENCHMARK(BM_GemmF32ReferenceHead)->Arg(1)->Arg(4)->Arg(128)->Unit(
    benchmark::kMillisecond);

void BM_GemmFp16Head(benchmark::State& state) {
  run_head(state, [](const HeadSetup& s) { return gemm_fp16(s.x, s.w16); });
}
BENCHMARK(BM_GemmFp16Head)->Arg(1)->Arg(4)->Arg(128)->Unit(
    benchmark::kMillisecond);

// One servebench decoder layer's seven W4A8 projections (hidden 512, ffn
// 1536, 8 query / 2 KV heads x 64; q, k, v, o, gate, up, down) as g128
// progressive packs for the active ISA, run back to back over m stacked
// rows — the GEMM work of one layer of an m-row engine step. The `ops`
// counter is the rate of 2*m*sum(n*k) operations per call; the per-m curve
// is the register tile's payoff as m grows.
struct LayerSetup {
  std::vector<PackedGemmB> packs;
  int64_t weights = 0;  // sum of n*k over the projections

  LayerSetup() {
    constexpr int64_t kHidden = 512, kFfn = 1536, kKv = 2 * 64;
    const struct {
      int64_t n, k;
    } shapes[] = {{kHidden, kHidden}, {kKv, kHidden}, {kKv, kHidden},
                  {kHidden, kHidden}, {kFfn, kHidden}, {kFfn, kHidden},
                  {kHidden, kFfn}};
    Rng rng(5);
    const int nr = cpu::microkernel_for(cpu::active_isa()).nr;
    for (const auto& sh : shapes) {
      Tensor w({sh.n, sh.k});
      for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal();
      packs.push_back(pack_gemm_b(quantize_progressive(w, {.group = 128}), nr));
      weights += sh.n * sh.k;
    }
  }
};

void BM_GemmW4A8Layer(benchmark::State& state) {
  static const LayerSetup* layer = new LayerSetup();
  const int64_t m = state.range(0);
  Rng rng(6);
  // Activations per input width: the hidden-wide ones feed q/k/v/o/gate/up,
  // the ffn-wide one feeds down.
  const auto acts = [&](int64_t k) {
    Tensor x({m, k});
    for (int64_t i = 0; i < x.numel(); ++i) x[i] = rng.normal();
    return quantize_acts_per_token(x);
  };
  const QuantizedActs x_hidden = acts(512), x_ffn = acts(1536);
  for (auto _ : state)
    for (const PackedGemmB& p : layer->packs)
      benchmark::DoNotOptimize(
          gemm_blocked(p.k == x_hidden.k() ? x_hidden : x_ffn, p));
  state.counters["ops"] =
      benchmark::Counter(2.0 * double(m) * double(layer->weights),
                         benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmW4A8Layer)->Arg(1)->Arg(4)->Arg(8)->Arg(32)->Arg(128)->Unit(
    benchmark::kMicrosecond);

// --- quantizers ----------------------------------------------------------------

void BM_QuantizeProgressive(benchmark::State& state) {
  const auto& s = setup();
  for (auto _ : state)
    benchmark::DoNotOptimize(quantize_progressive(s.w, {.group = 128}));
}
BENCHMARK(BM_QuantizeProgressive);

// The row entries around the W4A8 tiles at servebench's shapes (m 1 / 4 /
// 128 stacked rows; k or n = hidden 512 / ffn 1536), one registration per
// ISA for_each_isa runs (see register_row_benches): the per-token activation
// quantizer, and the FP16 epilogue of m x n accumulators with the
// per-channel zero-point term (the costlier form). The `elems` counter is
// the rate of m * k (or m * n) elements per call.
void BM_QuantizeActsPerToken(benchmark::State& state, cpu::Isa isa) {
  const int64_t m = state.range(0), k = state.range(1);
  Rng rng(8);
  Tensor x({m, k});
  for (int64_t i = 0; i < x.numel(); ++i) x[i] = rng.normal();
  cpu::set_isa(isa);
  for (auto _ : state) benchmark::DoNotOptimize(quantize_acts_per_token(x));
  cpu::clear_isa_override();
  state.counters["elems"] = benchmark::Counter(
      double(m * k), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_GemmEpilogue(benchmark::State& state, cpu::Isa isa) {
  const int64_t m = state.range(0), n = state.range(1);
  Rng rng(9);
  Tensor x({m, 512});
  for (int64_t i = 0; i < x.numel(); ++i) x[i] = rng.normal();
  const QuantizedActs qx = quantize_acts_per_token(x);
  I32Tensor acc({m, n});
  std::vector<float> scale(static_cast<size_t>(n)), zp(scale.size());
  for (int64_t i = 0; i < acc.numel(); ++i)
    acc[i] = rng.uniform_int(-(1 << 18), 1 << 18);
  for (size_t i = 0; i < scale.size(); ++i) {
    scale[i] = rng.uniform(1e-3f, 1e-2f);
    zp[i] = rng.uniform(-0.1f, 0.1f);
  }
  cpu::set_isa(isa);
  for (auto _ : state)
    benchmark::DoNotOptimize(gemm_blocked_epilogue(acc, qx, scale, zp));
  cpu::clear_isa_override();
  state.counters["elems"] = benchmark::Counter(
      double(m * n), benchmark::Counter::kIsIterationInvariantRate);
}

void register_row_benches() {
  benchutil::for_each_isa([](cpu::Isa isa) {
    const std::string suffix = std::string("/") + cpu::isa_name(isa);
    benchmark::RegisterBenchmark(("BM_QuantizeActsPerToken" + suffix).c_str(),
                                 BM_QuantizeActsPerToken, isa)
        ->ArgsProduct({{1, 4, 128}, {512, 1536}})
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(("BM_GemmEpilogue" + suffix).c_str(),
                                 BM_GemmEpilogue, isa)
        ->ArgsProduct({{1, 4, 128}, {512, 1536}})
        ->Unit(benchmark::kMicrosecond);
  });
}

// --- RLP primitives ---------------------------------------------------------------

void BM_RlpDequantSubAfterMul(benchmark::State& state) {
  uint32_t acc = 0;
  for (auto _ : state) {
    for (uint32_t i = 0; i < 1024; ++i) {
      acc ^= dequant4_sub_after_mul(0x0F3A2C1Du ^ i, 7, 5);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 1024 * 8);
}
BENCHMARK(BM_RlpDequantSubAfterMul);

void BM_ScalarDequantReference(benchmark::State& state) {
  // Scalar one-code-at-a-time dequant for comparison with the SWAR path.
  int acc = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) {
      for (int l = 0; l < 8; ++l) {
        const int q = (i >> l) & 0xF;
        acc ^= (q - 5) * 7;
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 1024 * 8);
}
BENCHMARK(BM_ScalarDequantReference);

// --- machine-readable regression suite (--json) --------------------------------

// Shapes mirror the two serving regimes: single-token decode and a stacked
// 64-token prefill. Small enough to finish in seconds on a 1-core CI runner.
struct JsonShape {
  int64_t m, n, k;
  const char* tag;
  int reps;
};

constexpr JsonShape kJsonShapes[] = {
    {1, 512, 512, "decode", 30},
    {64, 512, 512, "prefill", 5},
};

// Bytes a packed W4A8 GEMM touches: INT8 activation codes, 4-bit weight
// codes (their storage size — the packed panels hold one code per byte, but
// the deployable format is nibble-packed), FP16 outputs.
int64_t w4_bytes_touched(int64_t m, int64_t n, int64_t k) {
  return m * k + n * k / 2 + m * n * 2;
}

int64_t w8_bytes_touched(int64_t m, int64_t n, int64_t k) {
  return m * k + n * k + m * n * 2;
}

int run_json_suite(const std::string& path) {
  std::vector<benchutil::GemmBenchRecord> rows;
  float sink = 0.0f;
  for (const JsonShape& shape : kJsonShapes) {
    Rng rng(7);
    Tensor x({shape.m, shape.k}), w({shape.n, shape.k});
    for (int64_t i = 0; i < x.numel(); ++i) x[i] = rng.normal();
    for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal();
    const auto qx = quantize_acts_per_token(x);
    const auto w8 = quantize_w8_per_channel(w);
    const auto w4c = quantize_w4_per_channel(w);
    const auto w4g = quantize_progressive(w, {.group = 128});

    benchutil::for_each_isa([&](cpu::Isa isa) {
      const int nr = cpu::microkernel_for(cpu::active_isa()).nr;
      const auto p8 = pack_gemm_b(w8, nr);
      const auto p4c = pack_gemm_b(w4c, nr);
      const auto p4g = pack_gemm_b(w4g, nr);
      const struct {
        const char* name;
        const PackedGemmB* packed;
        int64_t bytes;
      } cases[] = {
          {"w8a8", &p8, w8_bytes_touched(shape.m, shape.n, shape.k)},
          {"w4a8_per_channel", &p4c,
           w4_bytes_touched(shape.m, shape.n, shape.k)},
          {"w4a8_per_group", &p4g,
           w4_bytes_touched(shape.m, shape.n, shape.k)},
      };
      for (const auto& c : cases) {
        const double secs = benchutil::time_best_of(
            [&] {
              const Tensor y = gemm_blocked(qx, *c.packed);
              sink += y[0];
            },
            shape.reps);
        rows.push_back(benchutil::make_record(
            std::string(c.name) + "/" + shape.tag, cpu::isa_name(isa),
            shape.m, shape.n, shape.k, secs, c.bytes));
      }
    });
  }
  benchmark::DoNotOptimize(sink);

  std::printf("%-28s %-8s %12s %10s\n", "kernel/shape", "isa", "GOPS",
              "GB/s");
  for (const auto& r : rows)
    std::printf("%-28s %-8s %12.2f %10.2f\n", r.name.c_str(), r.isa.c_str(),
                r.gops, r.gbps);
  return benchutil::finish_json(path, rows);
}

}  // namespace
}  // namespace qserve

int main(int argc, char** argv) {
  // Strip `--json <path>` before handing the rest to google-benchmark.
  std::string json_path;
  std::vector<char*> args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) return qserve::run_json_suite(json_path);

  qserve::register_row_benches();
  int bargc = static_cast<int>(args.size());
  benchmark::Initialize(&bargc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
