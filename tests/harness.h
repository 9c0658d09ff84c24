// Shared harness for the serving, kernel-ISA and parallel suites.
//
//  - ConfigGuard: RAII return of the thread count, the ISA pin and the fault
//    sites to their env defaults, so a failing ASSERT never leaks an
//    override into later tests.
//  - supported_isas() + for_each_config(): the ISA x threads sweep (a shard
//    count is a model argument, TpConfig, so tests pass it in-process).
//  - toy_weights(): synthetic weights, built once per (config, seed).
//  - Workload + random_workload(): seeded prompts and max_new budgets.
//  - run_engine(): one engine run over an EngineRun spec (with optional
//    per-request options, arrivals and cancels), returning streams and stats
//    and checking that every request finishes once and every pool drains.
//  - solo_streams(): the oracle every engine stream is held to.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "kernels/cpu/isa.h"
#include "model/quantized_model.h"
#include "model/weights.h"
#include "serving/engine.h"

namespace qserve {

// --- process-wide knobs ---------------------------------------------------------

// On scope exit, returns the thread count, the ISA pin and the fault sites
// to their env defaults (QSERVE_NUM_THREADS / QSERVE_ISA / QSERVE_FAULT).
// kNoFaults also disarms every site on entry, for tests that need a clean
// fault registry.
class ConfigGuard {
 public:
  enum Faults { kEnvFaults, kNoFaults };
  explicit ConfigGuard(Faults faults = kEnvFaults) {
    if (faults == kNoFaults) fault::clear();
  }
  // Also pins `isa`, and the thread count when threads > 0, for the scope.
  explicit ConfigGuard(cpu::Isa isa, int threads = 0) {
    cpu::set_isa(isa);
    if (threads > 0) set_num_threads(threads);
  }
  // Also sets the thread count for the scope.
  explicit ConfigGuard(int threads) { set_num_threads(threads); }
  ~ConfigGuard() {
    set_num_threads(0);
    cpu::clear_isa_override();
    const char* env = std::getenv("QSERVE_FAULT");
    try {
      fault::configure(env != nullptr ? env : "");
    } catch (const std::exception& e) {  // a malformed QSERVE_FAULT
      ADD_FAILURE() << e.what();
    }
  }
  ConfigGuard(const ConfigGuard&) = delete;
  ConfigGuard& operator=(const ConfigGuard&) = delete;
};

// Every ISA this host can execute, scalar first.
inline std::vector<cpu::Isa> supported_isas() {
  std::vector<cpu::Isa> v;
  for (const cpu::Isa isa :
       {cpu::Isa::kScalar, cpu::Isa::kAvx2, cpu::Isa::kAvx512})
    if (static_cast<int>(isa) <= static_cast<int>(cpu::detected_isa()))
      v.push_back(isa);
  return v;
}

// Runs fn() for every cell of isas x threads (ISA outermost) with the ISA
// pinned and the thread count set, each under a SCOPED_TRACE naming the
// cell; then returns every knob to its env default.
template <typename Fn>
void for_each_config(const std::vector<cpu::Isa>& isas,
                     const std::vector<int>& threads, Fn&& fn) {
  ConfigGuard guard;
  for (const cpu::Isa isa : isas) {
    cpu::set_isa(isa);
    for (const int t : threads) {
      set_num_threads(t);
      SCOPED_TRACE(std::string("isa=") + cpu::isa_name(isa) +
                   " threads=" + std::to_string(t));
      fn();
    }
  }
}

// --- models and workloads -------------------------------------------------------

// make_synthetic_weights(cfg, {.seed = seed}), built once per process for
// each distinct (config, seed).
inline const ModelWeights& toy_weights(const ModelConfig& cfg,
                                       uint64_t seed = SyntheticOptions{}.seed) {
  using Key = std::tuple<std::string, int64_t, int, int, int, int, int64_t,
                         int64_t, uint64_t>;
  static auto* cache = new std::map<Key, std::unique_ptr<ModelWeights>>();
  const Key key{cfg.name, cfg.hidden, cfg.n_layers, cfg.n_heads,
                cfg.n_kv_heads, cfg.head_dim, cfg.ffn_dim, cfg.vocab, seed};
  std::unique_ptr<ModelWeights>& slot = (*cache)[key];
  if (!slot) {
    SyntheticOptions opt;
    opt.seed = seed;
    slot = std::make_unique<ModelWeights>(make_synthetic_weights(cfg, opt));
  }
  return *slot;
}

// The default serving scheme with a KV pool of `pages` pages.
inline QuantSchemeConfig pool_scheme(int64_t pages) {
  QuantSchemeConfig scheme = QuantSchemeConfig::qserve_w4a8kv4_g128();
  scheme.kv_max_pages = pages;
  return scheme;
}

struct Workload {
  std::vector<std::vector<int>> prompts;
  std::vector<int> max_new;
};

// n requests; per request, in this order: a prompt length drawn from
// prompt_len, that many token ids in [0, 511], then a max_new budget drawn
// from max_new (both ranges inclusive).
inline Workload random_workload(Rng& rng, int n, std::pair<int, int> prompt_len,
                                std::pair<int, int> max_new) {
  Workload w;
  for (int i = 0; i < n; ++i) {
    std::vector<int> prompt(
        static_cast<size_t>(rng.uniform_int(prompt_len.first,
                                            prompt_len.second)));
    for (auto& t : prompt) t = rng.uniform_int(0, 511);
    w.prompts.push_back(std::move(prompt));
    w.max_new.push_back(rng.uniform_int(max_new.first, max_new.second));
  }
  return w;
}

// --- engine runner and oracle ---------------------------------------------------

// One request's options, arrival and cancellation in a run_engine script.
struct RequestScript {
  RequestOptions opts;         // max_new_tokens is taken from the workload
  int64_t arrival_step = 0;    // submitted before this engine step runs
  int cancel_at_token = -1;    // cancels itself from on_token at this length
  int cancel_on_finish_of = -1;  // cancelled from that request's on_finish
};

// One engine run: a target (and, when draft is set, a speculative draft)
// model, both sharded by tp, serving every workload request with `opts`
// (max_new_tokens taken from the workload), or with script[i] when a script
// is given. Arrival steps in a script must not decrease.
struct EngineRun {
  const ModelWeights* target = nullptr;
  QuantSchemeConfig scheme = QuantSchemeConfig::qserve_w4a8kv4_g128();
  const ModelWeights* draft = nullptr;
  QuantSchemeConfig draft_scheme = QuantSchemeConfig::qserve_w4a8kv4_g128();
  TpConfig tp;
  EngineConfig cfg;
  RequestOptions opts;
  std::vector<RequestScript> script;
  // Engine steps before which clear_prefix_cache() is called (ascending).
  std::vector<int64_t> clear_cache_at;
};

struct EngineOutcome {
  std::vector<std::vector<int>> streams;  // each workload request's stream
  // Per workload request: the submitted request, then its parallel-sampling
  // siblings in sample order (callbacks dropped).
  std::vector<std::vector<Request>> samples;
  EngineStats stats;
};

// Submits each workload request at its arrival step, in order, and steps the
// engine until idle, expecting only cached prefixes to hold pages whenever
// it goes idle. Expects every request (siblings included) to finish
// exactly once with a definite reason and no KV sequence left, then clears
// the prefix cache and expects both pools back at pages_in_use() == 0.
inline EngineOutcome run_engine(const EngineRun& run, const Workload& w) {
  QuantizedModel model(*run.target, run.scheme, run.tp);
  std::unique_ptr<QuantizedModel> draft;
  if (run.draft != nullptr)
    draft = std::make_unique<QuantizedModel>(*run.draft, run.draft_scheme,
                                             run.tp);
  ServingEngine engine(&model, draft.get(), run.cfg);
  const size_t n = w.prompts.size();
  const auto script = [&](size_t i) {
    return run.script.empty() ? RequestScript{run.opts} : run.script[i];
  };
  std::vector<int> ids(n, -1);
  std::map<int, int> finishes;  // request id -> on_finish calls
  const auto submit = [&](size_t i) {
    RequestScript s = script(i);
    s.opts.max_new_tokens = w.max_new[i];
    ids[i] = engine.submit(
        w.prompts[i], s.opts,
        [&engine, at = s.cancel_at_token](const Request& r, int) {
          if (static_cast<int>(r.generated.size()) == at) engine.cancel(r.id);
        },
        [&, i](const Request& r) {
          ++finishes[r.id];
          for (size_t j = 0; j < run.script.size(); ++j)
            if (run.script[j].cancel_on_finish_of == static_cast<int>(i) &&
                ids[j] >= 0)
              engine.cancel(ids[j]);
        });
  };
  size_t next = 0, next_clear = 0;
  for (int guard = 0;; ++guard) {
    const int64_t now = engine.stats().steps;
    while (next < n && script(next).arrival_step <= now) submit(next++);
    for (; next_clear < run.clear_cache_at.size() &&
           run.clear_cache_at[next_clear] <= now;
         ++next_clear)
      engine.clear_prefix_cache();
    if (!engine.step()) {
      // Idle: only cached prefixes may hold pages.
      EXPECT_LE(model.kv_cache().pages_in_use(),
                engine.stats().prefix_cache_pages);
      if (next == n) break;
    }
    if (guard >= 50000) {
      ADD_FAILURE() << "engine must terminate";
      break;
    }
  }
  EngineOutcome out;
  out.stats = engine.stats();
  size_t total = 0;
  for (const int id : ids) {
    std::vector<Request>& samples = out.samples.emplace_back();
    samples.push_back(engine.request(id));
    for (const int sid : samples[0].sibling_ids)
      samples.push_back(engine.request(sid));
    for (Request& r : samples) {
      EXPECT_TRUE(r.done()) << "request " << r.id;
      EXPECT_EQ(finishes[r.id], 1) << "request " << r.id;
      EXPECT_NE(r.finish_reason, FinishReason::kNone) << "request " << r.id;
      EXPECT_EQ(r.seq_handle, -1) << "request " << r.id;
      EXPECT_EQ(r.draft_seq_handle, -1) << "request " << r.id;
      r.on_token = nullptr;
      r.on_finish = nullptr;
    }
    total += samples.size();
    out.streams.push_back(samples[0].generated);
  }
  EXPECT_EQ(finishes.size(), total) << "on_finish for an unknown request";
  engine.clear_prefix_cache();
  EXPECT_EQ(model.kv_cache().pages_in_use(), 0) << "target pool leak";
  if (draft) {
    EXPECT_EQ(draft->kv_cache().pages_in_use(), 0) << "draft pool leak";
  }
  return out;
}

inline int argmax(const Tensor& logits) {
  int64_t best = 0;
  for (int64_t v = 1; v < logits.numel(); ++v)
    if (logits[v] > logits[best]) best = v;
  return static_cast<int>(best);
}

// The solo oracle: each request alone on the model — one prefill of the
// whole prompt, then greedy decode_step rounds; no engine, batching,
// chunking or scheduler. A request whose script option sets a sliding
// window gets it installed with a ring slack of its whole prompt, so the
// one-shot prefill never recycles a page it still reads. Disarms fault
// injection first (and leaves it disarmed): callers arm what their engine
// run needs afterwards.
inline std::vector<std::vector<int>> solo_streams(
    const ModelWeights& weights, const Workload& w,
    const std::vector<RequestScript>& script = {}) {
  fault::clear();
  QuantizedModel model(weights, QuantSchemeConfig::qserve_w4a8kv4_g128());
  std::vector<std::vector<int>> out;
  for (size_t i = 0; i < w.prompts.size(); ++i) {
    const int seq = model.begin_sequence();
    if (!script.empty() && script[i].opts.attention_window > 0) {
      const RequestOptions& o = script[i].opts;
      model.set_sequence_window(
          seq, o.sink_tokens, o.attention_window,
          static_cast<int64_t>(std::max<size_t>(w.prompts[i].size(), 1)));
    }
    std::vector<int> gen = {argmax(model.prefill(seq, w.prompts[i]))};
    while (static_cast<int>(gen.size()) < w.max_new[i])
      gen.push_back(argmax(model.decode_step(seq, gen.back())));
    model.end_sequence(seq);
    out.push_back(std::move(gen));
  }
  return out;
}

inline bool is_prefix(const std::vector<int>& prefix,
                      const std::vector<int>& full) {
  return prefix.size() <= full.size() &&
         std::equal(prefix.begin(), prefix.end(), full.begin());
}

}  // namespace qserve
