// Serving benchmark: one synthetic W4A8KV4 model, seeded traffic
// through the public ServingEngine API, end-to-end latency and throughput
// per workload; with --trace 1, per-layer metrics from spans and replays
// plus a Chrome trace. See servebench/README.md.
//
//   servebench --workload chat --seed 1 --seconds 20 --trace 0
//              [--trace-out trace.json] [--toy]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. A stream mismatch or a leaked KV page exits non-zero
// without printing it.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "common/parallel.h"
#include "kernels/cpu/isa.h"
#include "replay.h"
#include "runner.h"
#include "stats.h"

using namespace servebench;

namespace {

// Pinned pool size. One thread: on a shared host a step at 2 threads waits
// for whichever thread the host descheduled, which doubled the run-to-run
// spread; the second thread buys only ~1.0-1.4x (parallel.* metrics).
constexpr int kThreads = 1;
// setup_s is the fastest of these set-ups: each repeats identical work, and
// a shared host only ever adds time to one. All but one run before the
// timed phase, the last of them serving the traffic; the last set-up runs
// after it, so the samples span the run rather than one stretch of the
// host's speed drift.
constexpr int kSetupRepeats = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
  bool toy = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--toy]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--toy") {
      a.toy = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = end && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      have_seconds = end && *end == '\0' && a.seconds > 0 && a.seconds <= 600;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace takes 0 or 1");
      a.trace = v[0] == '1';
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (!find_workload(a.workload)) usage("unknown or missing --workload");
  if (!have_seed) usage("missing or invalid --seed");
  if (!have_seconds) usage("missing or invalid --seconds");
  return a;
}

// The end-to-end view of one timed phase.
struct EndToEnd {
  std::vector<double> ttft_ms, gap_ms, mean_gap_ms;
  int64_t sent = 0, completed = 0, met = 0;
  int64_t output_tokens = 0, good_tokens = 0;
  double wall_s = 0;
  std::map<std::string, int64_t> by_reason;
};

EndToEnd end_to_end(const RunResult& run, const WorkloadSpec& spec) {
  EndToEnd e;
  e.sent = static_cast<int64_t>(run.requests.size());
  e.wall_s = std::chrono::duration<double>(run.end - run.start).count();
  for (const RequestRecord& r : run.requests) {
    ++e.by_reason[qserve::to_string(r.reason)];
    e.output_tokens += static_cast<int64_t>(r.tokens.size());
    if (r.reason != qserve::FinishReason::kLength) continue;
    ++e.completed;
    const double ttft = ms_between(r.submit, r.tokens.front());
    e.ttft_ms.push_back(ttft);
    double gap_sum = 0;
    for (size_t t = 1; t < r.tokens.size(); ++t) {
      const double g = ms_between(r.tokens[t - 1], r.tokens[t]);
      e.gap_ms.push_back(g);
      gap_sum += g;
    }
    const double mean_gap =
        r.tokens.size() > 1 ? gap_sum / double(r.tokens.size() - 1) : 0;
    e.mean_gap_ms.push_back(mean_gap);
    if (ttft <= spec.ttft_slo_ms && mean_gap <= spec.tpot_slo_ms) {
      ++e.met;
      e.good_tokens += static_cast<int64_t>(r.tokens.size());
    }
  }
  return e;
}

// Highest-percentile rule: a tail percentile is printed only with at least
// ten samples beyond it.
void print_tail(const char* name, const std::vector<double>& v, double p) {
  const int64_t n = beyond(v, p);
  if (n >= 10)
    std::printf("  %-30s %16.6g ms   (%lld samples beyond)\n", name,
                percentile(v, p), static_cast<long long>(n));
  else
    std::printf("  %-30s %16s      (%lld samples, %lld beyond; needs 10)\n",
                name, "n/a", static_cast<long long>(v.size()),
                static_cast<long long>(n));
}

// Empty when the run exercised what `spec` was chosen for; else the reason.
std::string check_exercise(const WorkloadSpec& spec, int64_t prefix_hits,
                           double hit_rate, int64_t preemptions) {
  if (spec.no_prefix_hits && prefix_hits != 0)
    return std::to_string(prefix_hits) + " prefix hits, expected 0";
  if (hit_rate < spec.min_prefix_hit_rate)
    return "prefix hit rate " + std::to_string(hit_rate) + " < " +
           std::to_string(spec.min_prefix_hit_rate);
  if (spec.no_preemptions && preemptions != 0)
    return std::to_string(preemptions) + " preemptions, expected 0";
  if (spec.preempts && preemptions == 0) return "no preemption";
  return "";
}

std::string host_name() {
  char buf[256] = {0};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const WorkloadSpec& spec = *find_workload(args.workload);
  qserve::set_num_threads(kThreads);
  const qserve::ModelConfig mcfg = bench_model_config(args.toy);
  const int length_div = args.toy ? 8 : 1;
  const char* isa = qserve::cpu::isa_name(qserve::cpu::active_isa());
  std::printf("servebench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.toy ? " toy" : "");
  std::printf("host=%s nproc=%u isa=%s threads=%d model=%s (hidden %lld, "
              "%d layers, %d/%d heads x %d, ffn %lld, vocab %lld)\n",
              host_name().c_str(), std::thread::hardware_concurrency(), isa,
              qserve::num_threads(), mcfg.name.c_str(),
              static_cast<long long>(mcfg.hidden), mcfg.n_layers, mcfg.n_heads,
              mcfg.n_kv_heads, mcfg.head_dim,
              static_cast<long long>(mcfg.ffn_dim),
              static_cast<long long>(mcfg.vocab));

  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  const auto timed_setup = [&] {
    setup.reset();
    const auto t0 = Clock::now();
    setup = build_setup(mcfg, spec, length_div);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  };
  for (int i = 0; i + 1 < kSetupRepeats; ++i) timed_setup();

  const Traffic traffic = generate(spec, args.seed, args.seconds,
                                   static_cast<int>(mcfg.vocab), length_div);
  const double prime_s = prime_prefix_cache(*setup->engine, traffic);

  Trace trace;
  Trace* tr = args.trace ? &trace : nullptr;
  const RunResult run =
      run_traffic(*setup->engine, *setup->model, spec, traffic, tr);
  const uint64_t digest = stream_digest(*setup->engine, run);
  std::string gate_msg;
  bool gate_ok = false;
  {
    Span sp(tr, "correctness_gate", "bench");
    gate_ok = run_gate(*setup->model, *setup->engine, traffic, run, args.seed,
                       spec.gate_requests, &gate_msg);
  }
  const EndToEnd e = end_to_end(run, spec);

  std::printf("\nrequests: sent %lld, completed %lld, failed %lld (",
              static_cast<long long>(e.sent),
              static_cast<long long>(e.completed),
              static_cast<long long>(e.sent - e.completed));
  bool first = true;
  for (const auto& [reason, count] : e.by_reason) {
    std::printf("%s%s %lld", first ? "" : ", ", reason.c_str(),
                static_cast<long long>(count));
    first = false;
  }
  const int64_t preemptions = run.after.preemptions - run.before.preemptions;
  const int64_t prefix_hits = run.after.prefix_hits - run.before.prefix_hits;
  // Admissions: first admissions plus re-admissions after preemption.
  const int64_t admissions = run.first_admissions + preemptions;
  const double hit_rate =
      admissions > 0 ? double(prefix_hits) / double(admissions) : 0;
  std::printf(")\nengine: %lld steps, %lld preemptions, %lld prefix hits in "
              "%lld admissions\n",
              static_cast<long long>(run.after.steps - run.before.steps),
              static_cast<long long>(preemptions),
              static_cast<long long>(prefix_hits),
              static_cast<long long>(admissions));
  std::printf("stream digest: %016llx\n",
              static_cast<unsigned long long>(digest));
  std::printf("prefix-cache priming before timing: %.3f s\n", prime_s);
  if (!gate_ok) {
    std::fprintf(stderr, "servebench: correctness gate FAILED: %s\n",
                 gate_msg.c_str());
    return 3;
  }
  std::printf("correctness gate: %d solo replays bitwise identical, "
              "pages_in_use() == 0 after drain\n",
              std::min<int>(spec.gate_requests, static_cast<int>(e.sent)));
  const std::string exercise_msg =
      check_exercise(spec, prefix_hits, hit_rate, preemptions);
  if (!exercise_msg.empty()) {
    std::fprintf(stderr, "servebench: workload %s no longer exercises its "
                 "layer: %s\n", spec.name, exercise_msg.c_str());
    return 6;
  }

  timed_setup();  // the replays of the traced run use this one
  std::printf("setup samples s:");
  for (double t : setup_s) std::printf(" %.3f", t);
  std::printf("\n");

  Report e2e;
  e2e.add("setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s");
  e2e.add("ttft_p50_ms", percentile(e.ttft_ms, 50), "ms");
  // TPOT per request (its mean gap, the quantity the SLO limits), then the
  // median over requests. The pooled gaps give the inter-token latency.
  e2e.add("tpot_p50_ms", percentile(e.mean_gap_ms, 50), "ms");
  e2e.add("itl_p99_ms", percentile(e.gap_ms, 99), "ms");
  e2e.add("output_tok_s", double(e.output_tokens) / e.wall_s, "tok/s");
  e2e.add("goodput_tok_s", double(e.good_tokens) / e.wall_s, "tok/s");
  e2e.add("peak_rss_mb", peak_rss_mb(), "MB");
  e2e.print_table(args.trace ? "end-to-end (traced run; compare with the "
                               "untraced run of this seed for the tracing "
                               "overhead)"
                             : "end-to-end");
  print_tail("ttft_p90_ms", e.ttft_ms, 90);
  std::printf("  %-30s %16.6g ms\n", "itl_p50_ms", percentile(e.gap_ms, 50));
  std::printf("  %-30s %16.6g ratio (%lld of %lld sent met TTFT <= %g ms "
              "and mean gap <= %g ms)\n",
              "slo_attain_frac", double(e.met) / double(e.sent),
              static_cast<long long>(e.met), static_cast<long long>(e.sent),
              spec.ttft_slo_ms, spec.tpot_slo_ms);
  std::printf("  samples: %zu TTFT, %zu token gaps, wall %.3f s, engine "
              "busy %.3f of it\n",
              e.ttft_ms.size(), e.gap_ms.size(), e.wall_s,
              (run.after.wall_seconds - run.before.wall_seconds) / e.wall_s);
  std::printf("  per request: TTFT ms p10/p50/p90/max %.1f/%.1f/%.1f/%.1f, "
              "mean gap ms p50/p90/max %.2f/%.2f/%.2f\n",
              percentile(e.ttft_ms, 10), percentile(e.ttft_ms, 50),
              percentile(e.ttft_ms, 90), percentile(e.ttft_ms, 100),
              percentile(e.mean_gap_ms, 50), percentile(e.mean_gap_ms, 90),
              percentile(e.mean_gap_ms, 100));

  Report out = e2e;
  if (args.trace) {
    const qserve::EngineStats& a = run.before;
    const qserve::EngineStats& b = run.after;
    const double fwd_s = (b.prefill_seconds - a.prefill_seconds) +
                         (b.decode_seconds - a.decode_seconds);
    std::vector<double> step_ms, pages, fill, decode_rows, queue_ms, prompts;
    for (const StepSample& s : run.steps) {
      step_ms.push_back(s.wall_ms);
      pages.push_back(double(s.pages));
      if (s.pages > 0) fill.push_back(s.fill);
      if (s.decode_rows > 0) decode_rows.push_back(double(s.decode_rows));
    }
    double prompt_tokens = 0;
    for (size_t i = 0; i < run.requests.size(); ++i) {
      const RequestRecord& r = run.requests[i];
      if (r.admitted) queue_ms.push_back(ms_between(r.submit, r.admit));
      prompts.push_back(double(traffic.requests[i].prompt.size()));
      prompt_tokens += double(traffic.requests[i].prompt.size());
    }

    ReplayShapes shapes;
    shapes.decode_rows =
        std::max(1, static_cast<int>(std::lround(percentile(decode_rows, 50))));
    shapes.decode_context = std::max<int64_t>(
        1, std::llround(percentile(run.decode_contexts, 50)));
    shapes.prefill_prefix =
        std::max<int64_t>(1, std::llround(percentile(prompts, 50)));
    shapes.threads = kThreads;
    ReplayResult rp;
    {
      Span sp(tr, "replay", "bench");
      rp = run_replays(*setup->model, setup->weights, shapes, tr);
    }
    std::printf("\nreplay shapes: %d decode rows at context %lld, prefill "
                "chunk after %lld tokens\n",
                shapes.decode_rows,
                static_cast<long long>(shapes.decode_context),
                static_cast<long long>(shapes.prefill_prefix));

    out = Report();
    out.add("serving.step_ms_p50", percentile(step_ms, 50), "ms");
    out.add("serving.step_ms_p99", percentile(step_ms, 99), "ms");
    out.add("serving.rows_per_step_mean",
            double(b.step_tokens - a.step_tokens) / double(b.steps - a.steps),
            "rows");
    out.add("serving.host_frac",
            1.0 - fwd_s / (b.wall_seconds - a.wall_seconds), "ratio");
    out.add("serving.queue_wait_ms_p50", percentile(queue_ms, 50), "ms");
    out.add("serving.preemptions", double(preemptions), "count");
    out.add("serving.prefix_hit_rate", hit_rate, "ratio");
    out.add("serving.prefill_saved_frac",
            double(b.prefill_tokens_saved - a.prefill_tokens_saved) /
                prompt_tokens,
            "ratio");
    out.add("model.prefill_tok_s",
            double(b.prefill_tokens - a.prefill_tokens) /
                (b.prefill_seconds - a.prefill_seconds),
            "tok/s");
    out.add("model.decode_tok_s",
            double(b.decode_tokens - a.decode_tokens) /
                (b.decode_seconds - a.decode_seconds),
            "tok/s");
    out.add("model.attention_frac",
            (b.attention_seconds - a.attention_seconds) / fwd_s, "ratio");
    out.add("model.fwd_decode_ms", rp.fwd_decode_ms, "ms");
    out.add("model.fwd_prefill_ms", rp.fwd_prefill_ms, "ms");
    out.add("model.unattributed_frac", rp.unattributed_frac, "ratio");
    out.add("kv.pages_peak", *std::max_element(pages.begin(), pages.end()),
            "pages");
    out.add("kv.pages_mean", mean(pages), "pages");
    out.add("kv.fill_frac", mean(fill), "ratio");
    out.add("kv.cow_copies", double(b.cow_page_copies - a.cow_page_copies),
            "count");
    out.add("kv.append_us_per_tok", rp.append_us_per_tok, "us/tok");
    out.add("kv.attn_decode_gbps", rp.attn_decode_gbps, "GB/s");
    out.add("kernels.gemm_decode_gops", rp.gemm_decode_gops, "GOP/s");
    out.add("kernels.gemm_decode_gbps", rp.gemm_decode_gbps, "GB/s");
    out.add("kernels.gemm_prefill_gops", rp.gemm_prefill_gops, "GOP/s");
    out.add("kernels.attn_prefill_gops", rp.attn_prefill_gops, "GOP/s");
    out.add("kernels.norm_quant_us", rp.norm_quant_us, "us");
    out.add("parallel.fwd_decode_scaling", rp.fwd_decode_scaling, "x");
    out.add("parallel.gemm_decode_scaling", rp.gemm_decode_scaling, "x");
    out.print_table("per-layer (traced run)");

    if (!args.trace_out.empty()) {
      char seed_buf[32];
      std::snprintf(seed_buf, sizeof(seed_buf), "%llu",
                    static_cast<unsigned long long>(args.seed));
      if (!trace.write_chrome_json(
              args.trace_out, {{"workload", spec.name},
                               {"seed", seed_buf},
                               {"isa", isa},
                               {"threads", std::to_string(kThreads)},
                               {"host", host_name()}}))
        return 4;
      std::printf("trace: %zu events written to %s\n", trace.size(),
                  args.trace_out.c_str());
    }
  }

  for (const Metric& m : out.metrics()) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "servebench: metric %s is not finite\n",
                   m.name.c_str());
      return 5;
    }
  }
  out.print_json(true, e.sent, e.sent - e.completed);
  return 0;
}
