// Decode-attention microbenchmark over the quantized paged KV cache: one
// batched_fused_decode_attention call over a one-item batch (all heads,
// whole context) per measurement, at context 128 / 1k / 4k for INT4 and
// INT8 KV, on the scalar baseline and the best ISA the host supports.
// Reports per-call latency, decode tok/s (1 / latency — one call serves one
// token of one sequence), and the effective GB/s of quantized KV traffic the
// kernels sustain.
//
//   ./bench_attention [--json out.json]
//
// The JSON rows land in bench/baseline.json and are gated by
// bench/check_regression.py in CI (scalar rows hard-fail, SIMD rows warn),
// so both the baseline and the SIMD speedup are regression-tracked claims.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "kernels/cpu/isa.h"
#include "kvcache/fused_attention.h"

namespace qserve {
namespace {

using cpu::Isa;

struct Setup {
  KvCacheConfig ccfg;
  AttentionConfig acfg;
  std::unique_ptr<PagedKvCache> cache;
  int seq = -1;
  std::vector<float> q, out;
  std::vector<DecodeAttentionItem> items;  // the one sequence's decode row

  Setup(KvPrecision p, int ctx, uint64_t seed) {
    ccfg.n_kv_heads = 8;
    ccfg.head_dim = 64;
    ccfg.page_size = 16;
    ccfg.precision = p;
    ccfg.max_pages = 1 << 16;
    acfg = {8, 8, 64, /*fp16_accum=*/true};
    cache = std::make_unique<PagedKvCache>(ccfg);
    seq = cache->alloc_sequence();
    Rng rng(seed);
    const size_t span = static_cast<size_t>(ccfg.n_kv_heads) * ccfg.head_dim;
    std::vector<float> k(span), v(span);
    for (int t = 0; t < ctx; ++t) {
      for (auto& x : k) x = rng.normal();
      for (auto& x : v) x = rng.normal();
      k[0] = 9.0f;
      cache->append_batch(seq, k.data(), v.data(), 1);
    }
    const size_t hd = static_cast<size_t>(acfg.n_heads) * acfg.head_dim;
    q.resize(hd);
    out.resize(hd);
    for (auto& x : q) x = rng.normal();
    items = {{seq, q.data(), out.data()}};
  }

  // Quantized page bytes one call touches: K and V codes for every (token,
  // kv_head) plus the in-page FP16 scale/zero pairs, plus q in and out out.
  int64_t bytes_touched(int ctx) const {
    const int64_t span = int64_t(ccfg.n_kv_heads) * ccfg.head_dim;
    const int bits = static_cast<int>(ccfg.precision);
    int64_t b = 2 * int64_t(ctx) * span * bits / 8;      // K + V codes
    b += 2 * int64_t(ctx) * ccfg.n_kv_heads * 4;         // K + V params
    b += 2 * int64_t(acfg.n_heads) * acfg.head_dim * 4;  // q + out
    return b;
  }
};

const char* precision_tag(KvPrecision p) {
  return p == KvPrecision::kInt4 ? "kv4" : "kv8";
}

}  // namespace
}  // namespace qserve

int main(int argc, char** argv) {
  using namespace qserve;
  using benchutil::fmt;

  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }

  std::vector<Isa> isas{Isa::kScalar};
  if (cpu::detected_isa() != Isa::kScalar) isas.push_back(cpu::detected_isa());

  std::vector<benchutil::GemmBenchRecord> rows;
  benchutil::header("decode attention: fused quantized-KV kernels");
  benchutil::row({"config", "isa", "latency", "tok/s", "GB/s", "speedup"});
  for (const KvPrecision p : {KvPrecision::kInt4, KvPrecision::kInt8}) {
    for (const int ctx : {128, 1024, 4096}) {
      Setup s(p, ctx, 42 + ctx);
      const int reps = ctx <= 1024 ? 100 : 30;
      double scalar_secs = 0.0;
      for (const Isa isa : isas) {
        cpu::set_isa(isa);
        const double secs = benchutil::time_best_of(
            [&] { batched_fused_decode_attention(*s.cache, s.items, s.acfg); },
            reps);
        cpu::clear_isa_override();
        if (isa == Isa::kScalar) scalar_secs = secs;

        const std::string name = std::string("attn_decode_") +
                                 precision_tag(p) + "/ctx" +
                                 std::to_string(ctx);
        // tok/s in the gops slot (like the serving rows): one fused call
        // serves one decode token for one sequence.
        benchutil::GemmBenchRecord r;
        r.name = name;
        r.isa = cpu::isa_name(isa);
        r.m = 1;
        r.n = s.acfg.n_heads;
        r.k = ctx;
        r.seconds = secs;
        r.gops = secs > 0 ? 1.0 / secs : 0.0;
        r.gbps = secs > 0 ? double(s.bytes_touched(ctx)) / secs / 1e9 : 0.0;
        rows.push_back(r);
        benchutil::row({name, r.isa, benchutil::fmt_ms(secs, 3),
                        fmt(r.gops, 0), fmt(r.gbps, 2),
                        isa == Isa::kScalar
                            ? "1.00x"
                            : fmt(scalar_secs / secs, 2) + "x"});
      }
    }
  }

  if (!json_path.empty()) {
    if (!benchutil::write_bench_json(json_path,
                                     cpu::isa_name(cpu::detected_isa()),
                                     num_threads(), rows))
      return 1;
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
