// Shared formatting helpers for the table/figure reproduction binaries, plus
// the machine-readable JSON side of the bench-regression harness: the
// `--json <path>` benches (bench_w4a8_gemm, bench_serving, bench_attention)
// write records that CI compares against bench/baseline.json with
// bench/check_regression.py.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "kernels/cpu/isa.h"

namespace qserve::benchutil {

inline void header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string fmt_ms(double seconds, int precision = 2) {
  return fmt(seconds * 1e3, precision) + " ms";
}

// --- bench JSON records ------------------------------------------------------

// One timed kernel configuration. `gops` is 2*m*n*k MACs per second / 1e9;
// `gbps` is the bytes the kernel actually touches (quantized weights +
// activation codes + FP16 outputs) per second / 1e9.
struct GemmBenchRecord {
  std::string name;  // kernel + shape tag, e.g. "w4a8_per_group/prefill"
  std::string isa;   // "scalar" / "avx2" / "avx512"
  int64_t m = 0, n = 0, k = 0;
  double seconds = 0.0;
  double gops = 0.0;
  double gbps = 0.0;
};

// Best-of-`reps` wall time of fn() after one untimed warmup call.
template <typename Fn>
double time_best_of(const Fn& fn, int reps) {
  using clock = std::chrono::steady_clock;
  fn();
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = clock::now();
    fn();
    const double dt =
        std::chrono::duration<double>(clock::now() - t0).count();
    if (dt < best) best = dt;
  }
  return best;
}

inline GemmBenchRecord make_record(const std::string& name,
                                   const std::string& isa, int64_t m,
                                   int64_t n, int64_t k, double seconds,
                                   int64_t bytes_touched) {
  GemmBenchRecord r;
  r.name = name;
  r.isa = isa;
  r.m = m;
  r.n = n;
  r.k = k;
  r.seconds = seconds;
  r.gops = seconds > 0 ? 2.0 * double(m) * double(n) * double(k) / seconds /
                             1e9
                       : 0.0;
  r.gbps = seconds > 0 ? double(bytes_touched) / seconds / 1e9 : 0.0;
  return r;
}

// Serving and attention rows reuse the record with `gops` carrying a rate
// instead of GOP/s. Every rate is higher-is-better, so the gate's
// baseline/current ratio reads as a slowdown for all rows alike:
//   * decode tok/s (serving_decode_*, serving_spec_decode_*,
//     serving_tp_decode_*);
//   * first tokens per second, 1 / TTFT (serving_*ttft*): a TTFT increase
//     shows as a drop;
//   * decode tokens per target verify forward
//     (serving_spec_tokens_per_forward): the inverse of forwards-per-token,
//     above 1 while speculative acceptance lands;
//   * attention decode tok/s, 1 / call latency (attn_*): one fused call
//     serves one decode token of one sequence; `gbps` is the quantized KV
//     traffic it sustains.
// `seconds` is the measured time the rate comes from; m, n, k are shape tags
// each bench section defines.
inline GemmBenchRecord rate_record(const std::string& name,
                                   const std::string& isa, int64_t m,
                                   int64_t n, int64_t k, double seconds,
                                   double rate, double gbps = 0.0) {
  GemmBenchRecord r;
  r.name = name;
  r.isa = isa;
  r.m = m;
  r.n = n;
  r.k = k;
  r.seconds = seconds;
  r.gops = rate;
  r.gbps = gbps;
  return r;
}

// Writes {"host_isa": ..., "threads": ..., "results": [...]}; returns false
// (with a message on stderr) if the file cannot be opened.
inline bool write_bench_json(const std::string& path,
                             const std::string& host_isa, int threads,
                             const std::vector<GemmBenchRecord>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_util: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"host_isa\": \"%s\",\n  \"threads\": %d,\n",
               host_isa.c_str(), threads);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const GemmBenchRecord& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"isa\": \"%s\", \"m\": %lld, "
                 "\"n\": %lld, \"k\": %lld, \"seconds\": %.6e, "
                 "\"gops\": %.4f, \"gbps\": %.4f}%s\n",
                 r.name.c_str(), r.isa.c_str(),
                 static_cast<long long>(r.m), static_cast<long long>(r.n),
                 static_cast<long long>(r.k), r.seconds, r.gops, r.gbps,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

// --- the --json benches ------------------------------------------------------

// The one flag a JSON bench takes: returns the path of `--json <path>` (""
// when absent) and exits 2 with a usage line on any other argument.
inline std::string json_path_arg(int argc, char** argv) {
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
      std::exit(2);
    }
  }
  return path;
}

// Runs fn(isa) with each gated ISA forced in turn: scalar first (the CI
// regression anchor, produced on every host), then the host's best
// (skipped on a scalar-only host so rows stay unique).
template <typename Fn>
void for_each_isa(const Fn& fn) {
  std::vector<cpu::Isa> isas{cpu::Isa::kScalar};
  if (cpu::detected_isa() != cpu::Isa::kScalar)
    isas.push_back(cpu::detected_isa());
  for (const cpu::Isa isa : isas) {
    cpu::set_isa(isa);
    fn(isa);
    cpu::clear_isa_override();
  }
}

// Writes `rows` when a --json path was given; returns main's exit code.
inline int finish_json(const std::string& path,
                       const std::vector<GemmBenchRecord>& rows) {
  if (path.empty()) return 0;
  if (!write_bench_json(path, cpu::isa_name(cpu::detected_isa()),
                        num_threads(), rows))
    return 1;
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace qserve::benchutil
