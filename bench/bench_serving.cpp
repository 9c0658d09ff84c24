// Serving-engine benchmarks on the real quantized W4A8/KV4 kernels, one
// section per claim, each on the scalar baseline and the best ISA the host
// supports:
//
//   batched   the batched step executor vs a per-request model-level loop:
//             decode tok/s and TTFT at batch 1 / 4 / 16;
//   ttft      head-of-line blocking: short-request TTFT behind a 1024-token
//             prompt, monolithic vs chunked prefill;
//   spec      speculative decoding with a layer-skip draft: decode tok/s vs
//             the plain engine, and decode tokens per target forward;
//   prefix    prefix caching: cold vs warm TTFT of clients sharing a
//             1024-token system prompt;
//   tp        tensor parallelism: decode tok/s and TTFT at 1 / 2 / 4 shards;
//   overload  load shedding under a burst past the pool's capacity
//             (printed only, not gated).
//
//   ./bench_serving [--json out.json]
//
// The JSON rows (rate_record in bench_util.h says what `gops` carries) land
// in bench/baseline.json and are gated by bench/check_regression.py in CI.
// Every row is the best of a few runs: the engine is deterministic, the wall
// clock is not. Token streams are checked before any number is reported; a
// mismatch exits 1.
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.h"
#include "serving/engine.h"

namespace qserve {
namespace {

using benchutil::GemmBenchRecord;
using Rows = std::vector<GemmBenchRecord>;
using Prompts = std::vector<std::vector<int>>;

[[noreturn]] void fail(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::fputs("FAIL: ", stderr);
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
  va_end(args);
  std::exit(1);
}

// Prompt token t is (step * t + offset) % 512: every scenario's prompts are
// deterministic ramps through the first 512 vocabulary entries.
std::vector<int> ramp(int len, int step, int offset) {
  std::vector<int> p;
  p.reserve(static_cast<size_t>(len));
  for (int t = 0; t < len; ++t) p.push_back((step * t + offset) % 512);
  return p;
}

// Bigger than toy_config on purpose: ~5 MB of packed weights per 2-layer
// model, so a per-request m=1 decode GEMM re-streams the weights from
// L3/DRAM for every request, while the batched step reads them once per
// step — the memory-bound-decode regime the W4A8 design targets (Fig. 3).
// Still small enough for a 1-core CI runner. The spec section runs it 4
// layers deep, so a layer-truncated draft keeps a meaningful share of the
// target's computation.
ModelConfig memory_bound_config(int n_layers) {
  ModelConfig cfg;
  cfg.name = "bench-serving";
  cfg.hidden = 512;
  cfg.n_layers = n_layers;
  cfg.n_heads = 8;
  cfg.n_kv_heads = 4;
  cfg.head_dim = 64;
  cfg.ffn_dim = 1024;
  cfg.vocab = 1024;
  return cfg;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Wall-clock first-token latency of each of `ids`, in ms since the call,
// stepping `engine` until it is idle. It records after every step(), the
// last one included; a request that never produced a token stays at -1.
std::vector<double> first_token_ms(ServingEngine& engine,
                                   const std::vector<int>& ids) {
  std::vector<double> first(ids.size(), -1.0);
  const auto t0 = std::chrono::steady_clock::now();
  bool more = true;
  while (more) {
    more = engine.step();
    const double ms = ms_since(t0);
    for (size_t i = 0; i < ids.size(); ++i)
      if (first[i] < 0 && engine.request(ids[i]).first_token_step >= 0)
        first[i] = ms;
  }
  return first;
}

double mean(const std::vector<double>& v, size_t from = 0) {
  return std::accumulate(v.begin() + long(from), v.end(), 0.0) /
         double(v.size() - from);
}

// The model an engine serves.
struct ModelSpec {
  const ModelWeights* weights;
  QuantSchemeConfig scheme = QuantSchemeConfig::qserve_w4a8kv4_g128();
  TpConfig tp{};
  const ModelWeights* draft = nullptr;  // speculative draft, same scheme
};

struct Run {
  std::vector<double> first_ms;  // per prompt
  EngineStats stats;
  Prompts streams;  // per prompt, the generated tokens
};

// Fresh model(s) and engine, every prompt submitted up front, stepped until
// idle.
Run serve(const ModelSpec& spec, const EngineConfig& cfg,
          const Prompts& prompts, const RequestOptions& opts) {
  QuantizedModel model(*spec.weights, spec.scheme, spec.tp);
  std::unique_ptr<QuantizedModel> draft;
  if (spec.draft != nullptr)
    draft = std::make_unique<QuantizedModel>(*spec.draft, spec.scheme,
                                             spec.tp);
  ServingEngine engine(&model, draft.get(), cfg);
  std::vector<int> ids;
  for (const auto& p : prompts) ids.push_back(engine.submit(p, opts, nullptr));
  Run r;
  r.first_ms = first_token_ms(engine, ids);
  r.stats = engine.stats();
  for (int id : ids) r.streams.push_back(engine.request(id).generated);
  return r;
}

RequestOptions max_new(int tokens) {
  RequestOptions opts;
  opts.max_new_tokens = tokens;
  return opts;
}

// Best of `reps` calls of fn(), which returns one run's rows in a fixed
// order: each row keeps its highest rate, so rates keep their max and
// latencies (carried as 1 / latency) their min.
template <typename Fn>
Rows best_of(int reps, const Fn& fn) {
  Rows best = fn();
  for (int rep = 1; rep < reps; ++rep) {
    const Rows again = fn();
    for (size_t i = 0; i < best.size(); ++i)
      if (again[i].gops > best[i].gops) best[i] = again[i];
  }
  return best;
}

GemmBenchRecord decode_row(const std::string& name, cpu::Isa isa, int64_t m,
                           int64_t n, int64_t k, const EngineStats& s) {
  return benchutil::rate_record(name, cpu::isa_name(isa), m, n, k,
                                s.decode_seconds, s.decode_tokens_per_second);
}

GemmBenchRecord ttft_row(const std::string& name, cpu::Isa isa, int64_t m,
                         int64_t n, int64_t k, double ttft_ms) {
  return benchutil::rate_record(name, cpu::isa_name(isa), m, n, k,
                                ttft_ms / 1e3,
                                ttft_ms > 0 ? 1e3 / ttft_ms : 0.0);
}

// Prints `rows` under the section's table and appends them to `out`.
void report(const Rows& rows, Rows& out) {
  for (const GemmBenchRecord& r : rows)
    std::printf("%-34s %-8s %5lld %6lld %8lld %12.2f %12.1f\n",
                r.name.c_str(), r.isa.c_str(), static_cast<long long>(r.m),
                static_cast<long long>(r.n), static_cast<long long>(r.k),
                r.seconds * 1e3, r.gops);
  out.insert(out.end(), rows.begin(), rows.end());
}

void section(const std::string& title) {
  benchutil::header(title);
  std::printf("%-34s %-8s %5s %6s %8s %12s %12s\n", "row", "isa", "m", "n",
              "k", "time ms", "rate");
}

// --- batched -----------------------------------------------------------------
// The sequential side is a model-level per-request loop: one prefill() per
// request, then rounds of one decode_step() per request — every decode GEMM
// at m=1, the memory/unpack-bound regime. The batched side is the serving
// engine, which lowers the whole StepPlan into one forward_step, so each
// projection GEMM sees all the step's rows at once and reuses every unpacked
// weight tile across them. Both sides decode greedily, and their token
// streams must be identical. m = batch size, n = tokens measured (decode
// rows) or first tokens (TTFT rows), k = prompt length.

constexpr int kBatchedPrompt = 16;
constexpr int kBatchedNew = 32;

int argmax(const float* logits, int64_t vocab) {
  int64_t best = 0;
  for (int64_t v = 1; v < vocab; ++v)
    if (logits[v] > logits[best]) best = v;
  return static_cast<int>(best);
}

// A round of prefills (every request's first token lands when the round
// ends, like the engine's one prefill step), then kBatchedNew - 1 rounds of
// one decode_step per request.
Run run_sequential(const ModelWeights& weights, const Prompts& prompts) {
  QuantizedModel model(weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  const int64_t vocab = model.config().vocab;
  std::vector<int> seqs;
  Run r;
  r.streams.resize(prompts.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < prompts.size(); ++i) {
    seqs.push_back(model.begin_sequence());
    const Tensor logits = model.prefill(seqs.back(), prompts[i]);
    r.streams[i].push_back(argmax(logits.data(), vocab));
  }
  r.first_ms.assign(prompts.size(), ms_since(t0));
  const auto td = std::chrono::steady_clock::now();
  for (int step = 1; step < kBatchedNew; ++step) {
    for (size_t i = 0; i < prompts.size(); ++i) {
      const Tensor logits = model.decode_step(seqs[i], r.streams[i].back());
      r.streams[i].push_back(argmax(logits.data(), vocab));
    }
  }
  r.stats.decode_seconds = ms_since(td) / 1e3;
  r.stats.decode_tokens = int64_t(prompts.size()) * (kBatchedNew - 1);
  r.stats.decode_tokens_per_second =
      double(r.stats.decode_tokens) / r.stats.decode_seconds;
  for (int seq : seqs) model.end_sequence(seq);
  return r;
}

void batched_section(Rows& out) {
  const ModelWeights weights = make_synthetic_weights(memory_bound_config(2));
  section("batched step vs per-request loop: 16-token prompts, 32 new "
          "tokens, hidden 512, 2 layers");
  benchutil::for_each_isa([&](cpu::Isa isa) {
    for (const int batch : {1, 4, 16}) {
      Prompts prompts;
      for (int i = 0; i < batch; ++i)
        prompts.push_back(ramp(kBatchedPrompt, 31, i));
      EngineConfig cfg;
      cfg.scheduler.max_batch = batch;
      // One chunk covers every prompt: step 1 is pure prefill (TTFT), the
      // rest are pure decode steps, so the decode split is uncontaminated.
      cfg.scheduler.prefill_chunk = 1 << 12;
      const std::string tag = "/b" + std::to_string(batch);
      const Rows rows = best_of(3, [&] {
        const Run seq = run_sequential(weights, prompts);
        const Run bat =
            serve({&weights}, cfg, prompts, max_new(kBatchedNew));
        if (seq.streams != bat.streams)
          fail("engine streams differ from the per-request model-level "
               "loop (isa=%s batch=%d)",
               cpu::isa_name(isa), batch);
        return Rows{
            decode_row("serving_decode_seq" + tag, isa, batch,
                       seq.stats.decode_tokens, kBatchedPrompt, seq.stats),
            decode_row("serving_decode_batched" + tag, isa, batch,
                       bat.stats.decode_tokens, kBatchedPrompt, bat.stats),
            ttft_row("serving_ttft_seq" + tag, isa, batch, batch,
                     kBatchedPrompt, mean(seq.first_ms)),
            ttft_row("serving_ttft_batched" + tag, isa, batch, batch,
                     kBatchedPrompt, mean(bat.first_ms))};
      });
      report(rows, out);
      std::printf("  batched / sequential decode tok/s: %.2fx\n",
                  rows[1].gops / rows[0].gops);
    }
  });
}

// --- ttft --------------------------------------------------------------------
// With one monolithic prefill call the long prompt's whole prefill lands in
// a single step and every short request's first token waits behind it; with
// prefill_chunk=128 each step runs at most one chunk, so short TTFT drops to
// roughly one chunk-step. Toy model. m = short requests measured, n = the
// long prompt's length, k = the prefill chunk.

constexpr int kLongPrompt = 1024;
constexpr int kShortRequests = 4;

void ttft_section(Rows& out) {
  const ModelWeights weights = make_synthetic_weights(toy_config(1));
  Prompts prompts{ramp(kLongPrompt, 5, 1)};
  for (int i = 0; i < kShortRequests; ++i)
    prompts.push_back({4, 8, 15, 16, 23, 42, 7, (9 + i) % 512});
  section("chunked prefill: a 1024-token prompt + 4 8-token prompts, toy "
          "model");
  benchutil::for_each_isa([&](cpu::Isa isa) {
    const Rows rows = best_of(2, [&] {
      Rows r;
      for (const int chunk : {1 << 20, 128}) {
        EngineConfig cfg;
        cfg.scheduler.prefill_chunk = chunk;
        const Run run = serve({&weights}, cfg, prompts, max_new(8));
        const double short_ms = mean(run.first_ms, 1);
        if (chunk == 128) {
          r.push_back(ttft_row("serving_ttft_short_chunked", isa,
                               kShortRequests, kLongPrompt, chunk, short_ms));
          r.push_back(ttft_row("serving_ttft_long_chunked", isa,
                               kShortRequests, kLongPrompt, chunk,
                               run.first_ms[0]));
        } else {
          r.push_back(ttft_row("serving_ttft_short_mono", isa, kShortRequests,
                               kLongPrompt, chunk, short_ms));
        }
      }
      return r;
    });
    report(rows, out);
    std::printf("  short-request TTFT speedup from chunking: %.1fx\n",
                rows[1].gops / rows[0].gops);
  });
}

// --- spec --------------------------------------------------------------------
// Draft-k proposals from a layer-truncated draft model, one batched
// k+1-row target verify forward per step, greedy longest-prefix acceptance,
// KV rollback on both caches. The wins measured:
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
// kernels are deliberate one-MAC-at-a-time baselines. The rows record both
// metrics honestly; the tokens-per-forward rows are the paper-transferable
// figure of merit. Streams are greedy and the engine is deterministic, so
// acceptance-derived rows are ISA-stable. m = batch size, n = decode tokens
// measured, k = lookahead_k.

constexpr int kLookahead = 4;

// Layer-truncated draft: the target's first n_layers plus its embedding,
// final norm, and LM head — the layer-skip flavor of self-speculative
// decoding, the only draft construction that correlates with an untrained
// synthetic target (a separately sampled small model would propose noise).
// At 2 of 4 layers the draft costs ~half a target forward; its acceptance
// on this workload is the 10-22% above.
ModelWeights draft_from(const ModelWeights& target, int n_layers) {
  ModelWeights d = target;
  d.cfg.name = "bench-spec-draft";
  d.cfg.n_layers = n_layers;
  d.layers.resize(static_cast<size_t>(n_layers));
  return d;
}

void spec_section(Rows& out) {
  const ModelWeights target = make_synthetic_weights(memory_bound_config(4));
  const ModelWeights draft_weights = draft_from(target, 2);
  ModelSpec with_draft{&target};
  with_draft.draft = &draft_weights;
  section("speculative decoding: 16-token prompts, 32 new tokens, hidden "
          "512, 4 layers, 2-layer draft, k=4");
  benchutil::for_each_isa([&](cpu::Isa isa) {
    for (const int batch : {1, 4}) {
      Prompts prompts;
      for (int i = 0; i < batch; ++i)
        prompts.push_back(ramp(kBatchedPrompt, 31, i));
      EngineConfig cfg;
      cfg.scheduler.max_batch = batch;
      // One chunk covers every prompt: step 1 is pure prefill, the rest are
      // pure decode steps, so the decode split is uncontaminated.
      cfg.scheduler.prefill_chunk = 1 << 12;
      cfg.speculative.lookahead_k = kLookahead;
      const std::string tag = "/b" + std::to_string(batch);
      double acceptance = 0;
      const Rows rows = best_of(2, [&] {
        const Run base = serve({&target}, cfg, prompts, max_new(kBatchedNew));
        const Run spec = serve(with_draft, cfg, prompts, max_new(kBatchedNew));
        acceptance = spec.stats.acceptance_rate;
        const double fwd = spec.stats.target_forwards_per_decode_token;
        return Rows{
            decode_row("serving_spec_decode_base" + tag, isa, batch,
                       base.stats.decode_tokens, kLookahead, base.stats),
            decode_row("serving_spec_decode_spec" + tag, isa, batch,
                       spec.stats.decode_tokens, kLookahead, spec.stats),
            benchutil::rate_record("serving_spec_tokens_per_forward" + tag,
                                   cpu::isa_name(isa), batch,
                                   spec.stats.decode_tokens, kLookahead,
                                   spec.stats.decode_seconds,
                                   fwd > 0 ? 1.0 / fwd : 0.0)};
      });
      report(rows, out);
      std::printf("  speculative / baseline decode tok/s: %.2fx, "
                  "acceptance %.0f%%\n",
                  rows[1].gops / rows[0].gops, 100.0 * acceptance);
      if (rows[2].gops <= 1.0) {
        std::fprintf(stderr,
                     "WARNING: %s/b%d target forwards per token %.2f >= 1.0 "
                     "— acceptance not working\n",
                     cpu::isa_name(isa), batch,
                     rows[2].gops > 0 ? 1.0 / rows[2].gops : 0.0);
      }
    }
  });
}

// --- prefix ------------------------------------------------------------------
// The first (cold) client pays the full prefill; every later (warm) client's
// admission forks the cached prompt pages copy-on-write and prefills only
// its private suffix, so warm TTFT collapses to roughly one short chunk
// step. Every stream must equal a cold no-cache run, and the pool must be
// empty once the cache is cleared. Toy model. m = clients, n = the shared
// system prompt length, k = prefill tokens saved per warm client
// (page-aligned match length).

constexpr int kSystemPrompt = 1024;
constexpr int kClients = 4;

std::vector<int> client_prompt(int client) {
  std::vector<int> p = ramp(kSystemPrompt, 5, 1);
  const std::vector<int> suffix = ramp(8, 11, 37 * client);
  p.insert(p.end(), suffix.begin(), suffix.end());
  return p;
}

void prefix_section(Rows& out) {
  const ModelWeights weights = make_synthetic_weights(toy_config(1));
  // Each client alone, cold, caching off: the bitwise reference streams.
  Prompts reference;
  for (int c = 0; c < kClients; ++c)
    reference.push_back(
        serve({&weights}, EngineConfig{}, {client_prompt(c)}, max_new(8))
            .streams[0]);
  section("prefix caching: 4 clients sharing a 1024-token system prompt, "
          "toy model");
  benchutil::for_each_isa([&](cpu::Isa isa) {
    const Rows rows = best_of(2, [&] {
      QuantizedModel model(weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
      EngineConfig cfg;
      cfg.prefix_caching = true;
      cfg.scheduler.prefill_chunk = 128;
      ServingEngine engine(&model, cfg);
      // One client at a time, so each TTFT is a clean measurement of one
      // admission-to-first-token path against the (cold or warm) cache.
      std::vector<double> ttft;
      for (int c = 0; c < kClients; ++c) {
        const int id = engine.submit(client_prompt(c), 8);
        ttft.push_back(first_token_ms(engine, {id})[0]);
        if (engine.request(id).generated != reference[size_t(c)])
          fail("client %d's stream diverged from the cold reference (%s)", c,
               cpu::isa_name(isa));
      }
      const int64_t saved =
          engine.stats().prefill_tokens_saved / (kClients - 1);
      engine.clear_prefix_cache();
      if (model.kv_cache().pages_in_use() != 0)
        fail("%lld pages still in use after clear_prefix_cache (%s)",
             static_cast<long long>(model.kv_cache().pages_in_use()),
             cpu::isa_name(isa));
      return Rows{ttft_row("serving_prefix_ttft_cold", isa, kClients,
                           kSystemPrompt, saved, ttft[0]),
                  ttft_row("serving_prefix_ttft_warm", isa, kClients,
                           kSystemPrompt, saved, mean(ttft, 1))};
    });
    report(rows, out);
    std::printf("  warm TTFT speedup: %.1fx (streams bitwise identical)\n",
                rows[1].gops / rows[0].gops);
  });
}

// --- tp ----------------------------------------------------------------------
// The toy MHA model has 4 KV heads, so the plan shards evenly up to 4 ways.
// Shard pools partition the engine's thread budget, so on a fixed budget the
// curve is expected near-flat with a small reduction/concat cost — the rows
// catch regressions in that boundary, they do not advertise a speedup.
// Streams must repeat run to run and equal the single-shard engine's at
// every shard count. m = shards, n = concurrent requests, k = new tokens per
// request; the TTFT rows time the first request.

constexpr int kTpRequests = 4;
constexpr int kTpNew = 32;

void tp_section(Rows& out) {
  const ModelWeights weights = make_synthetic_weights(toy_config_mha(1));
  Prompts prompts;
  for (int r = 0; r < kTpRequests; ++r)
    prompts.push_back(ramp(16, 7, 41 * r + 3));
  section("tensor parallelism: 4 requests x 32 new tokens, toy MHA model, " +
          std::to_string(num_threads()) + " threads");
  benchutil::for_each_isa([&](cpu::Isa isa) {
    Prompts one_shard;
    for (const int shards : {1, 2, 4}) {
      ModelSpec spec{&weights, QuantSchemeConfig::qserve_w4a8kv4_per_channel(),
                     TpConfig{shards}};
      Prompts first_run;
      const Rows rows = best_of(2, [&] {
        const Run run = serve(spec, EngineConfig{}, prompts, max_new(kTpNew));
        if (first_run.empty()) first_run = run.streams;
        if (run.streams != first_run)
          fail("repeat run diverged at %d shards (%s)", shards,
               cpu::isa_name(isa));
        const std::string tag = "_s" + std::to_string(shards);
        return Rows{decode_row("serving_tp_decode" + tag, isa, shards,
                               kTpRequests, kTpNew, run.stats),
                    ttft_row("serving_tp_ttft" + tag, isa, shards,
                             kTpRequests, kTpNew, run.first_ms[0])};
      });
      if (shards == 1) one_shard = first_run;
      if (first_run != one_shard)
        fail("%d-shard streams diverged from the single-shard engine (%s)",
             shards, cpu::isa_name(isa));
      report(rows, out);
    }
  });
}

// --- overload ----------------------------------------------------------------
// A 64-request burst against a 64-page pool (far smaller than the burst's
// footprint), served with an unbounded queue, bounded admission
// (max_queued_requests), and an unbounded queue plus TTFT deadlines: the
// classic load-shedding story — refusing work at the door keeps latency flat
// for the traffic you accept. Toy 2-layer model. Printed only, not gated.

void overload_section() {
  const ModelWeights weights = make_synthetic_weights(toy_config(2));
  ModelSpec spec{&weights};
  spec.scheme.kv_max_pages = 64;
  Prompts burst;
  for (int i = 0; i < 64; ++i) burst.push_back(ramp(24, 37, i));  // 2 pages
  benchutil::header("serving under overload: 64-request burst, 64-page pool");
  std::printf("%-28s %8s %8s %8s %10s %12s %14s\n", "policy", "served",
              "shed", "expired", "steps", "queue hwm", "mean TTFT stp");
  const struct {
    const char* name;
    int64_t max_queued;
    int64_t ttft_deadline;
  } cases[] = {
      {"unbounded queue", 0, 0},
      {"bounded (16 queued)", 16, 0},
      {"unbounded + ttft<=24 steps", 0, 24},
  };
  for (const auto& c : cases) {
    EngineConfig cfg;
    cfg.scheduler.max_batch = 8;
    cfg.max_queued_requests = c.max_queued;
    RequestOptions opts = max_new(16);
    opts.ttft_deadline_steps = c.ttft_deadline;
    const EngineStats s = serve(spec, cfg, burst, opts).stats;
    std::printf("%-28s %8lld %8lld %8lld %10lld %12lld %14s\n", c.name,
                static_cast<long long>(s.completed),
                static_cast<long long>(s.shed),
                static_cast<long long>(s.deadline_expired),
                static_cast<long long>(s.steps),
                static_cast<long long>(s.queue_depth_high_water),
                benchutil::fmt(s.mean_first_token_steps).c_str());
  }
  std::printf(
      "\nEvery request finished exactly once with a definite FinishReason;\n"
      "sheds happen at submit() time, expiries at plan time — neither\n"
      "perturbs the streams of the requests that are served.\n");
}

}  // namespace
}  // namespace qserve

int main(int argc, char** argv) {
  using namespace qserve;
  const std::string json_path = benchutil::json_path_arg(argc, argv);
  Rows rows;
  batched_section(rows);
  ttft_section(rows);
  spec_section(rows);
  prefix_section(rows);
  tp_section(rows);
  overload_section();
  return benchutil::finish_json(json_path, rows);
}
