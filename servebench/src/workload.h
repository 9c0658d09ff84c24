// Traffic mixes of the serving benchmark and their seeded generator.
//
// Every workload is a closed loop at fixed concurrency: `clients` callers
// each keep one request in flight and send the next when it finishes. Every
// number that shapes the load — client count, length distributions, SLO
// limits, KV pool size — is a literal in the spec table (workload.cpp);
// nothing is derived from measured capacity.
//
// Lengths are stratified: a run of N requests takes the N mid-quantiles of
// each distribution in a fixed order that deals every round of `clients`
// consecutive requests one draw from each of `clients` strata. The seed
// picks every token (and the system prompt of a shared-prefix request).
// Token values do not change the engine's schedule, so every seed runs the
// same step sequence — preemptions included — and only wall time varies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

// A length distribution: lognormal (median, sigma) or uniform, clamped to
// [lo, hi] tokens.
struct LengthDist {
  bool lognormal = true;
  double median = 0;
  double sigma = 0;
  int lo = 1;
  int hi = 1;
};

struct WorkloadSpec {
  const char* name = "";
  int clients = 1;
  // Each client sends ceil(seconds / seconds_per_request) requests, so a run
  // of the benchmark's length lasts about `seconds` on the reference host.
  double seconds_per_request = 1;
  LengthDist prompt;  // unique part of the prompt
  LengthDist output;
  // Shared system prompts (0 = none): each prompt is one of them plus the
  // unique part. They are cached before timing starts.
  int system_prompts = 0;
  int system_prompt_len = 0;
  // KV pool size in longest contexts (system prompt + prompt + output, all
  // layers); 0 = the model default (ample).
  double kv_pool_contexts = 0;
  double ttft_slo_ms = 0;    // TTFT limit
  double tpot_slo_ms = 0;    // limit on a request's mean inter-token gap
  int gate_requests = 1;     // requests replayed solo by the correctness gate
  // What the workload was chosen to exercise. A run that does not is
  // refused, so the numbers keep measuring what the workload claims to.
  bool no_prefix_hits = false;     // the prefix index gets 0 hits
  double min_prefix_hit_rate = 0;  // prefix hits / admissions
  bool no_preemptions = false;     // the scheduler never preempts
  bool preempts = false;           // the scheduler preempts at least once
};

const std::vector<WorkloadSpec>& workload_specs();
// nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

struct RequestSpec {
  int client = 0;  // request k is client k % clients' (k / clients)-th
  std::vector<int> prompt;
  int max_new_tokens = 0;
};

struct Traffic {
  std::vector<RequestSpec> requests;  // round by round
  // The shared system prompts, for priming the prefix cache.
  std::vector<std::vector<int>> system_prompts;
};

// `length_div` shrinks every length (and the system prompts) for toy-scale
// self-tests; 1 for the real benchmark.

// KV pool pages for `spec` (0 = the model default): kv_pool_contexts times
// the pages of the longest context over all layers.
int64_t kv_pool_pages(const WorkloadSpec& spec, int n_layers, int length_div);

Traffic generate(const WorkloadSpec& spec, uint64_t seed, double seconds,
                 int vocab, int length_div);

// Splitmix64: a portable seeded stream (the generated inputs must not depend
// on the standard library's distribution implementations).
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t next();
  double uniform();            // [0, 1)
  int below(int n);            // [0, n)
  std::vector<int> permutation(int n);

 private:
  uint64_t state_;
};

// n tokens drawn uniformly from [0, vocab).
std::vector<int> random_tokens(int64_t n, int vocab, SplitMix& rng);

}  // namespace servebench
