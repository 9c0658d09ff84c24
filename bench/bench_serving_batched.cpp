// Batched step executor vs per-request execution: decode throughput and
// time-to-first-token at batch 1 / 4 / 16.
//
// The sequential side is a model-level per-request loop: one prefill() per
// request, then rounds of one decode_step() per request — every decode GEMM
// at m=1, the memory/unpack-bound regime. The batched side is the serving
// engine, which lowers the whole StepPlan into one forward_step, so each
// projection GEMM sees all the step's rows at once and reuses every unpacked
// weight tile across them. Both sides decode greedily, and the bench fails
// unless their token streams are identical.
//
// Invoked with `--json <path>` it writes regression records for
// bench/check_regression.py. Serving rows reuse the GemmBenchRecord schema
// with `gops` carrying tokens/second (decode rows) or first-tokens/second
// (TTFT rows) — the regression gate only compares ratios of that field —
// and m = batch size, n = tokens measured.
#include <chrono>
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

// Bigger than toy_config on purpose: ~5 MB of packed weights per model, so a
// per-request m=1 decode GEMM re-streams the weights from L3/DRAM for every
// request, while the batched step reads them once per step — the
// memory-bound-decode regime the W4A8 design targets (Fig. 3). Still small
// enough for a 1-core CI runner.
ModelConfig bench_config() {
  ModelConfig cfg;
  cfg.name = "bench-serving";
  cfg.hidden = 512;
  cfg.n_layers = 2;
  cfg.n_heads = 8;
  cfg.n_kv_heads = 4;
  cfg.head_dim = 64;
  cfg.ffn_dim = 1024;
  cfg.vocab = 1024;
  return cfg;
}

struct RunResult {
  double decode_tokens_per_second = 0;
  double decode_seconds = 0;
  double ttft_ms = 0;  // mean wall-clock first-token latency
  int64_t decode_tokens = 0;
  std::vector<std::vector<int>> streams;
};

std::vector<int> prompt_for(int request) {
  std::vector<int> prompt;
  for (int t = 0; t < kPromptLen; ++t)
    prompt.push_back((31 * t + request) % 512);
  return prompt;
}

int argmax(const float* logits, int64_t vocab) {
  int64_t best = 0;
  for (int64_t v = 1; v < vocab; ++v)
    if (logits[v] > logits[best]) best = v;
  return static_cast<int>(best);
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Per-request model-level loop. A round of prefills (every request's first
// token lands when the round ends, like the engine's one prefill step), then
// kMaxNew - 1 rounds of one decode_step per request.
RunResult run_sequential(const ModelWeights& weights, int batch) {
  QuantizedModel model(weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  const int64_t vocab = model.config().vocab;
  std::vector<int> seqs;
  RunResult r;
  r.streams.resize(static_cast<size_t>(batch));
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < batch; ++i) {
    seqs.push_back(model.begin_sequence());
    const Tensor logits = model.prefill(seqs.back(), prompt_for(i));
    r.streams[size_t(i)].push_back(argmax(logits.data(), vocab));
  }
  r.ttft_ms = ms_since(t0);
  const auto td = std::chrono::steady_clock::now();
  for (int step = 1; step < kMaxNew; ++step) {
    for (int i = 0; i < batch; ++i) {
      std::vector<int>& stream = r.streams[size_t(i)];
      const Tensor logits = model.decode_step(seqs[size_t(i)], stream.back());
      stream.push_back(argmax(logits.data(), vocab));
    }
  }
  r.decode_seconds = ms_since(td) / 1e3;
  r.decode_tokens = int64_t(batch) * (kMaxNew - 1);
  r.decode_tokens_per_second = double(r.decode_tokens) / r.decode_seconds;
  for (int seq : seqs) model.end_sequence(seq);
  return r;
}

RunResult run_batched(const ModelWeights& weights, int batch) {
  QuantizedModel model(weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  EngineConfig cfg;
  cfg.scheduler.max_batch = batch;
  // One chunk covers every prompt: step 1 is pure prefill (TTFT), the rest
  // are pure decode steps, so the decode split is uncontaminated.
  cfg.scheduler.prefill_chunk = 1 << 12;
  ServingEngine engine(&model, cfg);

  std::vector<int> ids;
  for (int i = 0; i < batch; ++i)
    ids.push_back(engine.submit(prompt_for(i), kMaxNew));

  std::vector<double> first_ms(ids.size(), -1);
  const auto t0 = std::chrono::steady_clock::now();
  while (engine.step()) {
    const double ms = ms_since(t0);
    for (size_t i = 0; i < ids.size(); ++i)
      if (first_ms[i] < 0 && engine.request(ids[i]).first_token_step >= 0)
        first_ms[i] = ms;
  }
  const EngineStats stats = engine.drain();

  RunResult r;
  r.decode_tokens = stats.decode_tokens;
  r.decode_seconds = stats.decode_seconds;
  r.decode_tokens_per_second = stats.decode_tokens_per_second;
  for (double ms : first_ms) r.ttft_ms += ms / double(first_ms.size());
  for (int id : ids) r.streams.push_back(engine.request(id).generated);
  return r;
}

int run_suite(const std::string& json_path) {
  const ModelWeights weights = make_synthetic_weights(bench_config());
  std::vector<benchutil::GemmBenchRecord> rows;
  // scalar first (the CI regression anchor), then the host's best ISA.
  std::vector<cpu::Isa> isas{cpu::Isa::kScalar};
  if (cpu::detected_isa() != cpu::Isa::kScalar)
    isas.push_back(cpu::detected_isa());

  std::printf("%d-token prompts, %d new tokens each, W4A8KV4 model "
              "(hidden=512, 2 layers)\n",
              kPromptLen, kMaxNew);
  std::printf("%-8s %-6s %-12s %16s %16s %10s\n", "isa", "batch", "mode",
              "decode tok/s", "TTFT ms", "speedup");
  for (cpu::Isa isa : isas) {
    cpu::set_isa(isa);
    for (int batch : {1, 4, 16}) {
      RunResult seq, bat;
      // Best-of-3: engine runs are deterministic, wall clock is not.
      for (int rep = 0; rep < 3; ++rep) {
        const RunResult s = run_sequential(weights, batch);
        const RunResult b = run_batched(weights, batch);
        if (s.streams != b.streams) {
          std::fprintf(stderr,
                       "FAIL: engine streams differ from the per-request "
                       "model-level loop (isa=%s batch=%d)\n",
                       cpu::isa_name(isa), batch);
          return 1;
        }
        if (s.decode_tokens_per_second > seq.decode_tokens_per_second)
          seq = s;
        if (b.decode_tokens_per_second > bat.decode_tokens_per_second)
          bat = b;
      }
      const char* iname = cpu::isa_name(isa);
      const std::string tag = "/b" + std::to_string(batch);
      auto push = [&](const std::string& name, double per_second,
                      double seconds, int64_t tokens) {
        benchutil::GemmBenchRecord r;
        r.name = name;
        r.isa = iname;
        r.m = batch;
        r.n = tokens;
        r.k = kPromptLen;
        r.seconds = seconds;
        r.gops = per_second;  // tokens/second (see file comment)
        rows.push_back(r);
      };
      push("serving_decode_seq" + tag, seq.decode_tokens_per_second,
           seq.decode_seconds, seq.decode_tokens);
      push("serving_decode_batched" + tag, bat.decode_tokens_per_second,
           bat.decode_seconds, bat.decode_tokens);
      push("serving_ttft_seq" + tag, 1e3 / seq.ttft_ms, seq.ttft_ms / 1e3,
           batch);
      push("serving_ttft_batched" + tag, 1e3 / bat.ttft_ms, bat.ttft_ms / 1e3,
           batch);
      std::printf("%-8s %-6d %-12s %16.1f %16.2f %10s\n", iname, batch,
                  "sequential", seq.decode_tokens_per_second, seq.ttft_ms,
                  "");
      std::printf("%-8s %-6d %-12s %16.1f %16.2f %9.2fx\n", iname, batch,
                  "batched", bat.decode_tokens_per_second, bat.ttft_ms,
                  bat.decode_tokens_per_second /
                      seq.decode_tokens_per_second);
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
