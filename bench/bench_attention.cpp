// Decode attention over the quantized paged KV cache, on the scalar baseline
// and the best ISA the host supports. Each measurement is one
// batched_fused_decode_attention call over a one-item batch (all heads, the
// sequence's whole visible context); the sequence is filled one token at a
// time through the one append path. Rows report per-call latency, decode
// tok/s (one call serves one token of one sequence) and the effective GB/s
// of quantized KV traffic the kernels sustain. Two sections:
//
//   * attn_decode_{kv4,kv8}/ctxN: INT4 and INT8 KV at context 128 / 1k / 4k,
//     8 heads x 64;
//   * attn_long_{mha,gqa4}_{full,win4k}/ctxN: INT4 KV at context 4k / 16k /
//     32k, full attention vs a 4k sliding window with 64 attention sinks, for
//     the MHA head layout (8 KV heads x 64) and the GQA g=4 layout (8 query
//     heads sharing 2 KV heads). Its two headline claims:
//       - windowed decode tok/s is flat in context: the kernel visits only
//         sinks + window tokens however long the sequence grows, and the
//         page ring keeps the footprint at window_page_cap() pages (checked
//         here: the bench exits 1 otherwise);
//       - GQA g=4 cuts KV bytes/token 4x and speeds up long-context decode
//         (4x less quantized KV traffic per step).
//
//   ./bench_attention [--json out.json]
//
// The JSON rows land in bench/baseline.json and are gated by
// bench/check_regression.py in CI (scalar rows hard-fail, SIMD rows warn),
// so both the baseline and the SIMD speedup are regression-tracked claims.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "kvcache/fused_attention.h"

namespace qserve {
namespace {

constexpr int64_t kSink = 64;
constexpr int64_t kWindow = 4096;
constexpr int64_t kSlack = 16;  // decode appends one token at a time

// One row: the cache geometry, the context it is filled to, and how many
// timed calls it gets.
struct Case {
  std::string name;
  int n_kv_heads;  // 8 query heads x 64 in every case
  KvPrecision precision;
  int ctx;
  bool windowed;  // kWindow + kSink ring instead of full attention
  int reps;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const KvPrecision p : {KvPrecision::kInt4, KvPrecision::kInt8}) {
    for (const int ctx : {128, 1024, 4096}) {
      out.push_back({std::string("attn_decode_") +
                         (p == KvPrecision::kInt4 ? "kv4" : "kv8") + "/ctx" +
                         std::to_string(ctx),
                     8, p, ctx, false, ctx <= 1024 ? 100 : 30});
    }
  }
  const struct {
    const char* tag;
    int n_kv_heads;
  } layouts[] = {
      {"mha", 8},   // classic multi-head layout
      {"gqa4", 2},  // 4 query heads per KV head (Llama-3-70B ratio)
  };
  for (const auto& lay : layouts) {
    for (const bool windowed : {false, true}) {
      for (const int ctx : {4096, 16384, 32768}) {
        out.push_back({std::string("attn_long_") + lay.tag +
                           (windowed ? "_win4k" : "_full") + "/ctx" +
                           std::to_string(ctx),
                       lay.n_kv_heads, KvPrecision::kInt4, ctx, windowed,
                       ctx <= 4096 ? 30 : 10});
      }
    }
  }
  return out;
}

struct Setup {
  KvCacheConfig ccfg;
  AttentionConfig acfg;
  std::unique_ptr<PagedKvCache> cache;
  int64_t visible = 0;  // KV tokens one decode call visits
  std::vector<float> q, out;
  std::vector<DecodeAttentionItem> items;  // the one sequence's decode row

  Setup(const Case& c, uint64_t seed) {
    ccfg.n_kv_heads = c.n_kv_heads;
    ccfg.head_dim = 64;
    ccfg.page_size = 16;
    ccfg.precision = c.precision;
    ccfg.max_pages = 1 << 16;
    acfg = {8, c.n_kv_heads, 64, /*fp16_accum=*/true};
    cache = std::make_unique<PagedKvCache>(ccfg);
    const int seq = cache->alloc_sequence();
    if (c.windowed) cache->set_window(seq, kSink, kWindow, kSlack);
    visible = c.windowed ? std::min<int64_t>(c.ctx, kSink + kWindow) : c.ctx;
    Rng rng(seed);
    const size_t span = static_cast<size_t>(ccfg.n_kv_heads) * ccfg.head_dim;
    std::vector<float> k(span), v(span);
    for (int t = 0; t < c.ctx; ++t) {
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

  // Quantized page bytes one call touches: K and V codes + in-page FP16
  // scale/zero pairs for every visited (token, kv_head), plus q in and out
  // out.
  int64_t bytes_touched() const {
    const int64_t span = int64_t(ccfg.n_kv_heads) * ccfg.head_dim;
    const int bits = static_cast<int>(ccfg.precision);
    int64_t b = 2 * visible * span * bits / 8;
    b += 2 * visible * ccfg.n_kv_heads * 4;
    b += 2 * int64_t(acfg.n_heads) * acfg.head_dim * 4;
    return b;
  }
};

}  // namespace
}  // namespace qserve

int main(int argc, char** argv) {
  using namespace qserve;
  const std::string json_path = benchutil::json_path_arg(argc, argv);

  std::vector<benchutil::GemmBenchRecord> rows;
  benchutil::header("decode attention: fused quantized-KV kernels");
  std::printf("%-30s %-8s %12s %10s %8s %10s %8s\n", "config", "isa",
              "latency ms", "tok/s", "GB/s", "KV B/tok", "speedup");
  for (const Case& c : cases()) {
    Setup s(c, 42 + c.ctx);
    if (c.windowed) {
      // The ring bound is part of the claim: a 32k windowed sequence must
      // hold at most window_page_cap pages, flat in context.
      const int64_t cap =
          PagedKvCache::window_page_cap(s.ccfg, kSink, kWindow, kSlack);
      if (s.cache->pages_in_use() > cap) {
        std::fprintf(stderr,
                     "FAIL: windowed footprint %lld pages exceeds ring cap "
                     "%lld at ctx %d\n",
                     static_cast<long long>(s.cache->pages_in_use()),
                     static_cast<long long>(cap), c.ctx);
        return 1;
      }
    }
    const double kv_bytes_per_token =
        double(s.cache->bytes_in_use()) / double(c.ctx);
    double scalar_secs = 0.0;
    benchutil::for_each_isa([&](cpu::Isa isa) {
      const double secs = benchutil::time_best_of(
          [&] { batched_fused_decode_attention(*s.cache, s.items, s.acfg); },
          c.reps);
      if (isa == cpu::Isa::kScalar) scalar_secs = secs;
      rows.push_back(benchutil::rate_record(
          c.name, cpu::isa_name(isa), 1, s.acfg.n_heads, c.ctx, secs,
          secs > 0 ? 1.0 / secs : 0.0,
          secs > 0 ? double(s.bytes_touched()) / secs / 1e9 : 0.0));
      const benchutil::GemmBenchRecord& r = rows.back();
      std::printf("%-30s %-8s %12.3f %10.0f %8.2f %10.0f %7.2fx\n",
                  c.name.c_str(), r.isa.c_str(), secs * 1e3, r.gops, r.gbps,
                  kv_bytes_per_token, scalar_secs / secs);
    });
  }
  std::printf(
      "\n(windowed tok/s is flat in context; gqa4 rows move 4x fewer KV "
      "bytes per token than mha at every context)\n");
  return benchutil::finish_json(json_path, rows);
}
