#include "workload.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace servebench {

namespace {

// Inverse standard normal CDF (Acklam's rational approximation, relative
// error < 1.2e-9) — enough for mid-quantiles of a lognormal.
double inv_norm_cdf(double p) {
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double lo = 0.02425;
  if (p < lo) {
    const double q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p > 1 - lo) return -inv_norm_cdf(1 - p);
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
}

int quantile(const LengthDist& d, double p, int length_div) {
  const double v = d.lognormal
                       ? d.median * std::exp(d.sigma * inv_norm_cdf(p))
                       : d.lo + p * (d.hi - d.lo);
  const int clamped =
      std::clamp(static_cast<int>(std::lround(v)), d.lo, d.hi);
  return std::max(1, clamped / length_div);
}

// The fixed order of the n = rounds * clients quantile indices: position k
// draws quantile out[k]. The indices form `clients` equal strata and every
// round of `clients` consecutive positions holds one index from each, so
// every round mixes short and long requests. The order comes from a fixed
// stream, not the run's seed.
std::vector<int> schedule_order(int n, int clients, SplitMix& fixed) {
  const int rounds = n / clients;
  std::vector<int> out(static_cast<size_t>(n));
  for (int j = 0; j < clients; ++j) {
    const std::vector<int> pick = fixed.permutation(rounds);
    for (int r = 0; r < rounds; ++r)
      out[size_t(r * clients + j)] = j * rounds + pick[size_t(r)];
  }
  std::vector<int> tmp(static_cast<size_t>(clients));
  for (int r = 0; r < rounds; ++r) {
    const std::vector<int> p = fixed.permutation(clients);
    for (int c = 0; c < clients; ++c)
      tmp[size_t(c)] = out[size_t(r * clients + p[size_t(c)])];
    std::copy(tmp.begin(), tmp.end(), out.begin() + r * clients);
  }
  return out;
}

// The n mid-quantiles of `d`, in schedule order.
std::vector<int> stratified_lengths(const LengthDist& d, int clients,
                                    int n, SplitMix& fixed, int length_div) {
  const std::vector<int> order = schedule_order(n, clients, fixed);
  std::vector<int> out(static_cast<size_t>(n));
  for (int k = 0; k < n; ++k)
    out[size_t(k)] = quantile(d, (order[size_t(k)] + 0.5) / n, length_div);
  return out;
}

std::vector<WorkloadSpec> make_specs() {
  std::vector<WorkloadSpec> specs;
  {
    WorkloadSpec s;
    s.name = "chat";
    s.clients = 4;
    s.seconds_per_request = 2.0;
    s.prompt = {true, 128, 0.6, 32, 512};
    s.output = {true, 64, 0.6, 16, 256};
    s.ttft_slo_ms = 570;
    s.tpot_slo_ms = 45;
    s.gate_requests = 2;
    s.no_prefix_hits = true;
    s.no_preemptions = true;
    specs.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "shared_prefix";
    s.clients = 4;
    s.seconds_per_request = 1.7;
    s.prompt = {false, 0, 0, 16, 64};
    s.output = {false, 0, 0, 16, 64};
    s.system_prompts = 4;
    s.system_prompt_len = 1024;
    s.ttft_slo_ms = 250;
    s.tpot_slo_ms = 48;
    s.gate_requests = 1;
    s.min_prefix_hit_rate = 0.9;
    specs.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "long_context";
    s.clients = 2;
    s.seconds_per_request = 10;
    s.prompt = {false, 0, 0, 1024, 2048};
    s.output = {false, 0, 0, 128, 128};
    // 1.5x the longest context (2048 + 128 tokens = 136 pages per layer;
    // 816 pages at 4 layers): two long contexts collide.
    s.kv_pool_contexts = 1.5;
    s.ttft_slo_ms = 5100;
    s.tpot_slo_ms = 150;
    s.gate_requests = 1;
    s.preempts = true;
    specs.push_back(s);
  }
  return specs;
}

}  // namespace

uint64_t SplitMix::next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SplitMix::uniform() { return double(next() >> 11) * 0x1.0p-53; }

int SplitMix::below(int n) { return static_cast<int>(next() % uint64_t(n)); }

std::vector<int> SplitMix::permutation(int n) {
  std::vector<int> p(static_cast<size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  for (int i = n - 1; i > 0; --i)
    std::swap(p[static_cast<size_t>(i)], p[static_cast<size_t>(below(i + 1))]);
  return p;
}

std::vector<int> random_tokens(int64_t n, int vocab, SplitMix& rng) {
  std::vector<int> t(static_cast<size_t>(n));
  for (int& x : t) x = rng.below(vocab);
  return t;
}

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = make_specs();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& s : workload_specs())
    if (name == s.name) return &s;
  return nullptr;
}

int64_t kv_pool_pages(const WorkloadSpec& spec, int n_layers, int length_div) {
  if (spec.kv_pool_contexts <= 0) return 0;
  constexpr int64_t kPageSize = 16;  // the model's KV page size
  const int64_t longest = spec.system_prompt_len / length_div +
                          spec.prompt.hi / length_div +
                          spec.output.hi / length_div;
  const int64_t pages = (longest + kPageSize - 1) / kPageSize;
  return static_cast<int64_t>(spec.kv_pool_contexts * double(pages * n_layers));
}

Traffic generate(const WorkloadSpec& spec, uint64_t seed, double seconds,
                 int vocab, int length_div) {
  SplitMix rng(seed * 0x2545F4914F6CDD1Dull + 1);
  SplitMix fixed(0x5E4EBE7C4ull);
  Traffic t;
  for (int p = 0; p < spec.system_prompts; ++p)
    t.system_prompts.push_back(
        random_tokens(std::max(1, spec.system_prompt_len / length_div), vocab,
                      rng));

  const int n = spec.clients * std::max(1, static_cast<int>(std::ceil(
                                               seconds / spec.seconds_per_request)));
  const std::vector<int> prompt_len =
      stratified_lengths(spec.prompt, spec.clients, n, fixed, length_div);
  const std::vector<int> output_len =
      stratified_lengths(spec.output, spec.clients, n, fixed, length_div);
  for (int i = 0; i < n; ++i) {
    RequestSpec r;
    r.client = i % spec.clients;
    if (!t.system_prompts.empty())
      r.prompt = t.system_prompts[size_t(rng.below(spec.system_prompts))];
    const std::vector<int> unique =
        random_tokens(prompt_len[size_t(i)], vocab, rng);
    r.prompt.insert(r.prompt.end(), unique.begin(), unique.end());
    r.max_new_tokens = output_len[size_t(i)];
    t.requests.push_back(std::move(r));
  }
  return t;
}

}  // namespace servebench
