// Speculative decoding on the real CPU engine: draft-k proposals from a
// layer-truncated draft model, one batched k+1-row target verify forward per
// step, greedy longest-prefix acceptance, KV rollback on both caches.
//
// Both models run the real quantized W4A8/KV4 kernels. The wins measured:
//   * target-model forwards per generated decode token < 1.0 — acceptance
//     lands multiple tokens per verify forward (the baseline spends exactly
//     1.0 by construction), raising the arithmetic intensity of every
//     target GEMM from m=1 decode rows to m=k+1 verify spans;
//   * honest decode tok/s vs the non-speculative baseline — the draft's
//     forwards and the rejected tail's wasted rows are all charged to the
//     decode wall-time split.
//
// Expect the forwards-per-token win but NOT a CPU wall-clock win: speculation
// converts k+1 m=1 target forwards into one m=k+1 forward, which only pays
// when decode is memory-bound enough that an m=k+1 forward costs about as
// much as an m=1 forward (the GPU regime of Fig. 3). Measured on a 4-vCPU
// AVX-512 host (speculative / baseline decode tok/s, two runs each; the
// last column also gives the baseline's own decode tok/s before -> after
// the register tile):
//
//   threads  batch  head on        head on    register-tile W4A8
//                   gemm_f32_ref   gemm_fp16
//   1        1      0.25x          0.23-0.29x 0.32-0.34x (967-1083 -> 1174-1234)
//   1        4      0.18x          0.20-0.21x 0.20-0.22x (1357-1636 -> 2061-2096)
//   4        1      0.26-0.28x     0.40-0.41x 0.40x      (726-760 -> 836-900)
//   4        4      0.18-0.22x     0.28-0.30x 0.27-0.31x (1519-1585 -> 1686-1691)
//
// (The gemm_fp16 column was re-measured alongside the last one.) Part of the
// old gap was the LM head: every draft row and every verify row paid the
// scalar double-accumulating reference loop, which gemm_fp16 (binary16
// panels on the attention microkernels) replaced. The register-tiled W4A8
// GEMM then made a row cheaper the more rows share a call (about half the
// per-row time at m = 4-8), so the k+1-row verify forward no longer costs
// (k+1)x an m=1 step. But batched decode rows stack the same way, so the
// batch-4 baseline gained as much as the verify forward did, and the ratio
// barely moved. What remains is acceptance: the synthetic target accepts
// 10-22% of draft tokens, so a verify forward lands only 1.4-1.8 tokens
// while the draft's k m=1 forwards through half the layers cost about two
// baseline steps on their own. The scalar-ISA rows barely move: the scalar
// kernels are deliberate one-MAC-at-a-time baselines. The JSON rows record
// both metrics honestly; the tokens-per-forward rows are the
// paper-transferable figure of merit.
//
// Invoked with `--json <path>` it writes regression records for
// bench/check_regression.py. Rows reuse the GemmBenchRecord schema: `gops`
// carries decode tokens/second for serving_spec_decode_* rows and decode
// tokens per target verify forward (the inverse of forwards-per-token; must
// stay > 1) for serving_spec_tokens_per_forward rows; m = batch size,
// n = decode tokens measured, k = lookahead_k. Streams are greedy and the
// engine is deterministic, so acceptance-derived rows are ISA-stable.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "kernels/cpu/isa.h"
#include "serving/engine.h"

namespace qserve {
namespace {

constexpr int kPromptLen = 16;
constexpr int kMaxNew = 32;
constexpr int kLookahead = 4;

// Same memory-bound-decode shape family as bench_serving_batched but 4
// layers deep, so a layer-truncated draft keeps a meaningful share of the
// target's computation.
ModelConfig target_config() {
  ModelConfig cfg;
  cfg.name = "bench-spec-target";
  cfg.hidden = 512;
  cfg.n_layers = 4;
  cfg.n_heads = 8;
  cfg.n_kv_heads = 4;
  cfg.head_dim = 64;
  cfg.ffn_dim = 1024;
  cfg.vocab = 1024;
  return cfg;
}

// Layer-truncated draft: the target's first n_layers plus its embedding,
// final norm, and LM head — the layer-skip flavor of self-speculative
// decoding, the only draft construction that correlates with an untrained
// synthetic target (a separately sampled small model would propose noise).
// At 2 of 4 layers the draft costs ~half a target forward and reaches ~33%
// acceptance on this workload.
ModelWeights draft_from(const ModelWeights& target, int n_layers) {
  ModelWeights d = target;
  d.cfg.name = "bench-spec-draft";
  d.cfg.n_layers = n_layers;
  d.layers.resize(static_cast<size_t>(n_layers));
  return d;
}

struct RunResult {
  double decode_tokens_per_second = 0;
  double decode_seconds = 0;
  int64_t decode_tokens = 0;
  double acceptance_rate = 0;
  double forwards_per_token = 0;  // target verify forwards / decode token
};

RunResult run(const ModelWeights& target_w, const ModelWeights* draft_w,
              int batch, int lookahead) {
  QuantizedModel model(target_w, QuantSchemeConfig::qserve_w4a8kv4_g128());
  std::unique_ptr<QuantizedModel> draft;
  if (draft_w != nullptr)
    draft = std::make_unique<QuantizedModel>(
        *draft_w, QuantSchemeConfig::qserve_w4a8kv4_g128());
  EngineConfig cfg;
  cfg.scheduler.max_batch = batch;
  // One chunk covers every prompt: step 1 is pure prefill, the rest are pure
  // decode steps, so the decode split is uncontaminated.
  cfg.scheduler.prefill_chunk = 1 << 12;
  cfg.speculative.lookahead_k = lookahead;
  ServingEngine engine(&model, draft.get(), cfg);

  for (int i = 0; i < batch; ++i) {
    std::vector<int> prompt;
    for (int t = 0; t < kPromptLen; ++t) prompt.push_back((31 * t + i) % 512);
    engine.submit(prompt, kMaxNew);
  }
  const EngineStats stats = engine.drain();

  RunResult r;
  r.decode_tokens = stats.decode_tokens;
  r.decode_seconds = stats.decode_seconds;
  r.decode_tokens_per_second = stats.decode_tokens_per_second;
  r.acceptance_rate = stats.acceptance_rate;
  r.forwards_per_token = stats.target_forwards_per_decode_token;
  return r;
}

int run_suite(const std::string& json_path) {
  const ModelWeights target_w = make_synthetic_weights(target_config());
  const ModelWeights draft_w = draft_from(target_w, 2);
  std::vector<benchutil::GemmBenchRecord> rows;
  std::vector<cpu::Isa> isas{cpu::Isa::kScalar};
  if (cpu::detected_isa() != cpu::Isa::kScalar)
    isas.push_back(cpu::detected_isa());

  std::printf("%d-token prompts, %d new tokens each, W4A8KV4 target "
              "(hidden=512, 4 layers), layer-skip 2-layer draft, k=%d\n",
              kPromptLen, kMaxNew, kLookahead);
  std::printf("%-8s %-6s %-12s %14s %12s %14s %10s\n", "isa", "batch",
              "mode", "decode tok/s", "accept", "fwd/token", "speedup");
  for (cpu::Isa isa : isas) {
    cpu::set_isa(isa);
    for (int batch : {1, 4}) {
      RunResult base, spec;
      // Best-of-2: the engine is deterministic, the wall clock is not.
      for (int rep = 0; rep < 2; ++rep) {
        const RunResult b = run(target_w, nullptr, batch, kLookahead);
        const RunResult s = run(target_w, &draft_w, batch, kLookahead);
        if (b.decode_tokens_per_second > base.decode_tokens_per_second)
          base = b;
        if (s.decode_tokens_per_second > spec.decode_tokens_per_second)
          spec = s;
      }
      const char* iname = cpu::isa_name(isa);
      const std::string tag = "/b" + std::to_string(batch);
      auto push = [&](const std::string& name, double gops, double seconds,
                      int64_t tokens) {
        benchutil::GemmBenchRecord r;
        r.name = name;
        r.isa = iname;
        r.m = batch;
        r.n = tokens;
        r.k = kLookahead;
        r.seconds = seconds;
        r.gops = gops;  // tok/s or tokens-per-forward (see file comment)
        rows.push_back(r);
      };
      push("serving_spec_decode_base" + tag, base.decode_tokens_per_second,
           base.decode_seconds, base.decode_tokens);
      push("serving_spec_decode_spec" + tag, spec.decode_tokens_per_second,
           spec.decode_seconds, spec.decode_tokens);
      push("serving_spec_tokens_per_forward" + tag,
           spec.forwards_per_token > 0 ? 1.0 / spec.forwards_per_token : 0,
           spec.decode_seconds, spec.decode_tokens);
      std::printf("%-8s %-6d %-12s %14.1f %12s %14s %10s\n", iname, batch,
                  "baseline", base.decode_tokens_per_second, "-", "1.00", "");
      std::printf("%-8s %-6d %-12s %14.1f %11.0f%% %14.2f %9.2fx\n", iname,
                  batch, "speculative", spec.decode_tokens_per_second,
                  100.0 * spec.acceptance_rate, spec.forwards_per_token,
                  spec.decode_tokens_per_second /
                      base.decode_tokens_per_second);
      if (spec.forwards_per_token >= 1.0) {
        std::fprintf(stderr,
                     "WARNING: %s/b%d target forwards per token %.2f >= 1.0 "
                     "— acceptance not working\n",
                     iname, batch, spec.forwards_per_token);
      }
    }
    cpu::clear_isa_override();
  }

  if (!json_path.empty()) {
    if (!benchutil::write_bench_json(json_path,
                                     cpu::isa_name(cpu::detected_isa()),
                                     num_threads(), rows))
      return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace qserve

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }
  return qserve::run_suite(json_path);
}
